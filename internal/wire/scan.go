package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// Format is a spelling of the comment object: what its six keys are
// called and how strict the timestamp is. The scanning code is the same
// for every format.
type Format uint8

// The zero Format is the daemon's dialect: author/page/ts/urls/tags/
// reply_to, ts a plain integer.

// Pushshift is the archives' spelling:
// author/link_id/created_utc/urls/hashtags/parent_author, created_utc an
// integer, a float or either in quotes, truncated toward zero.
const Pushshift Format = 1

// The daemon's key names, which scanObject switches on; pushshiftKey
// returns these.
var keyAuthor, keyPage, keyTS, keyURLs, keyTags, keyReplyTo = []byte("author"),
	[]byte("page"), []byte("ts"), []byte("urls"), []byte("tags"), []byte("reply_to")

// pushshiftKey renames an archive's key to the daemon's name for the same
// field. Every other key, the daemon's own spellings included, names
// nothing in an archive.
func pushshiftKey(key []byte) []byte {
	switch string(key) {
	case "author":
		return keyAuthor
	case "link_id":
		return keyPage
	case "created_utc":
		return keyTS
	case "urls":
		return keyURLs
	case "hashtags":
		return keyTags
	case "parent_author":
		return keyReplyTo
	}
	return nil
}

// Scanner is the zero-copy JSON comment scanner. It accepts any
// whitespace-separated concatenation of comment objects and arrays of
// comment objects — a superset of both the JSON-array and NDJSON bodies
// the daemon has always taken, including the two mixed on one
// connection. Unknown object fields are skipped structurally. The zero
// value reads the daemon's format.
//
// Field views point into the scanned buffer except for strings carrying
// escapes, which are unescaped once into an internal arena; arena blocks
// are append-only, so earlier views survive later growth. A Scanner is
// single-use: scan one body, then drop it (the backing buffer may be
// pooled by the caller).
type Scanner struct {
	// Format selects the key names and timestamp leniency; Reset keeps it.
	Format Format

	buf []byte
	pos int
	// inArray tracks whether the scanner is inside a top-level array of
	// comment objects.
	inArray bool
	// arrayNeedsSep is set between array elements: the next element must
	// be preceded by ',' (or the array must close).
	arrayNeedsSep bool

	// arena holds unescaped string bytes. Append-only: growth abandons
	// the old block, which stays referenced by the views cut from it.
	arena []byte
	// attrs is the flat backing for URLs/Tags views; like the arena it is
	// append-only from the views' point of view.
	attrs [][]byte
}

// Reset re-arms the scanner for a new buffer, keeping the arena and
// attribute backing capacity.
func (s *Scanner) Reset(buf []byte) {
	s.buf = buf
	s.pos = 0
	s.inArray = false
	s.arrayNeedsSep = false
	s.arena = s.arena[:0]
	s.attrs = s.attrs[:0]
}

func (s *Scanner) errf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", s.pos, fmt.Sprintf(format, args...))
}

func (s *Scanner) skipWS() {
	// Keys and values mostly follow their delimiters directly.
	if s.pos < len(s.buf) && s.buf[s.pos] > ' ' {
		return
	}
	for s.pos < len(s.buf) {
		switch s.buf[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// Next scans the next comment object into c, returning (false, nil) at a
// clean end of input.
func (s *Scanner) Next(c *Comment) (bool, error) {
	for {
		s.skipWS()
		if s.pos >= len(s.buf) {
			if s.inArray {
				return false, s.errf("unexpected end of input inside array")
			}
			return false, nil
		}
		switch b := s.buf[s.pos]; b {
		case '[':
			if s.inArray {
				return false, s.errf("nested array")
			}
			s.inArray = true
			s.arrayNeedsSep = false
			s.pos++
		case ']':
			if !s.inArray {
				return false, s.errf("unexpected ']'")
			}
			s.inArray = false
			s.pos++
		case ',':
			if !s.inArray || !s.arrayNeedsSep {
				return false, s.errf("unexpected ','")
			}
			s.arrayNeedsSep = false
			s.pos++
		case '{':
			if s.inArray && s.arrayNeedsSep {
				return false, s.errf("expected ',' or ']' between array elements")
			}
			if err := s.scanObject(c); err != nil {
				return false, err
			}
			if s.inArray {
				s.arrayNeedsSep = true
			}
			return true, nil
		default:
			return false, s.errf("expected comment object, got %q", b)
		}
	}
}

// One scans buf as exactly one comment object with nothing but whitespace
// around it: an NDJSON line.
func (s *Scanner) One(buf []byte, c *Comment) error {
	s.Reset(buf)
	if s.skipWS(); s.pos >= len(buf) || buf[s.pos] != '{' {
		return s.errf("expected comment object")
	}
	err := s.scanObject(c)
	if s.skipWS(); err == nil && s.pos < len(buf) {
		err = s.errf("data after comment object")
	}
	return err
}

// scanObject decodes one comment object starting at '{'.
func (s *Scanner) scanObject(c *Comment) error {
	*c = Comment{}
	archive := s.Format == Pushshift
	s.pos++ // '{'
	s.skipWS()
	if s.pos < len(s.buf) && s.buf[s.pos] == '}' {
		s.pos++
		return nil
	}
	for {
		s.skipWS()
		key, err := s.scanString()
		if err != nil {
			return err
		}
		s.skipWS()
		if s.pos >= len(s.buf) || s.buf[s.pos] != ':' {
			return s.errf("expected ':' after object key")
		}
		s.pos++
		s.skipWS()
		if archive {
			key = pushshiftKey(key)
		}
		switch string(key) {
		case "author":
			c.Author, err = s.scanString()
		case "page":
			c.Page, err = s.scanString()
		case "ts":
			if archive {
				c.TS, err = s.scanLenientTS()
			} else {
				c.TS, err = s.scanInt()
			}
		case "urls":
			c.URLs, err = s.scanStringArray()
		case "tags":
			c.Tags, err = s.scanStringArray()
		case "reply_to":
			c.ReplyTo, err = s.scanString()
		default:
			err = s.skipValue()
		}
		if err != nil {
			return err
		}
		s.skipWS()
		if s.pos >= len(s.buf) {
			return s.errf("unexpected end of input inside object")
		}
		switch s.buf[s.pos] {
		case ',':
			s.pos++
		case '}':
			s.pos++
			return nil
		default:
			return s.errf("expected ',' or '}' in object, got %q", s.buf[s.pos])
		}
	}
}

// scanString decodes a JSON string at the cursor. Escape-free strings
// are returned as views into the buffer; escaped ones are unescaped into
// the arena.
func (s *Scanner) scanString() ([]byte, error) {
	if s.pos >= len(s.buf) || s.buf[s.pos] != '"' {
		return nil, s.errf("expected string")
	}
	s.pos++
	buf, start := s.buf, s.pos
	i := start
	// Eight bytes at a time up to the first byte that ends the clean
	// run, then byte by byte through a final partial word.
	for ; i+8 <= len(buf); i += 8 {
		if m := stopBytes(binary.LittleEndian.Uint64(buf[i : i+8])); m != 0 {
			i += bits.TrailingZeros64(m) / 8
			break
		}
	}
	for ; i < len(buf); i++ {
		if b := buf[i]; b == '"' || b == '\\' || b < 0x20 {
			break
		}
	}
	if i == len(buf) {
		s.pos = i
		return nil, s.errf("unterminated string")
	}
	switch buf[i] {
	case '"':
		s.pos = i + 1
		return buf[start:i], nil
	case '\\':
		return s.scanEscapedString(start, i)
	}
	s.pos = i
	return nil, s.errf("raw control character in string")
}

// Word-at-a-time byte tests on eight bytes loaded little-endian: byte k
// of the word is bits 8k..8k+7, so the lowest set bit of a mask names
// the earliest byte.
const (
	lows  = 0x0101010101010101
	highs = 0x8080808080808080
)

// stopBytes returns a mask whose lowest set bit is the high bit of the
// first byte of w that is '"', '\\' or a control byte (below 0x20), or 0
// when w has none. Borrows can flag bytes after the first stop byte but
// never before it, so only the lowest bit is exact.
func stopBytes(w uint64) uint64 {
	quote := w ^ ('"' * lows)
	backslash := w ^ ('\\' * lows)
	return ((quote-lows)&^quote | (backslash-lows)&^backslash | (w-0x20*lows)&^w) & highs
}

// scanEscapedString finishes a string whose first backslash sits at esc;
// the clean prefix is buf[start:esc]. The unescaped bytes land in the
// arena and the returned view points there.
func (s *Scanner) scanEscapedString(start, esc int) ([]byte, error) {
	mark := len(s.arena)
	s.arena = append(s.arena, s.buf[start:esc]...)
	i := esc
	for i < len(s.buf) {
		switch b := s.buf[i]; {
		case b == '"':
			s.pos = i + 1
			return s.arena[mark:len(s.arena):len(s.arena)], nil
		case b == '\\':
			i++
			if i >= len(s.buf) {
				s.pos = i
				return nil, s.errf("unterminated escape")
			}
			switch e := s.buf[i]; e {
			case '"', '\\', '/':
				s.arena = append(s.arena, e)
				i++
			case 'b':
				s.arena = append(s.arena, '\b')
				i++
			case 'f':
				s.arena = append(s.arena, '\f')
				i++
			case 'n':
				s.arena = append(s.arena, '\n')
				i++
			case 'r':
				s.arena = append(s.arena, '\r')
				i++
			case 't':
				s.arena = append(s.arena, '\t')
				i++
			case 'u':
				r, n, err := s.decodeUnicodeEscape(i - 1)
				if err != nil {
					return nil, err
				}
				s.arena = utf8.AppendRune(s.arena, r)
				i += n - 1
			default:
				s.pos = i
				return nil, s.errf("invalid escape \\%c", e)
			}
		case b < 0x20:
			s.pos = i
			return nil, s.errf("raw control character in string")
		default:
			s.arena = append(s.arena, b)
			i++
		}
	}
	s.pos = len(s.buf)
	return nil, s.errf("unterminated string")
}

// decodeUnicodeEscape decodes \uXXXX (and a following low-surrogate
// escape when XXXX is a high surrogate) starting at the backslash index.
// It returns the rune and the total bytes consumed from that backslash.
func (s *Scanner) decodeUnicodeEscape(at int) (rune, int, error) {
	hex4 := func(off int) (rune, bool) {
		if off+4 > len(s.buf) {
			return 0, false
		}
		var v rune
		for _, c := range s.buf[off : off+4] {
			v <<= 4
			switch {
			case c >= '0' && c <= '9':
				v |= rune(c - '0')
			case c >= 'a' && c <= 'f':
				v |= rune(c-'a') + 10
			case c >= 'A' && c <= 'F':
				v |= rune(c-'A') + 10
			default:
				return 0, false
			}
		}
		return v, true
	}
	r, ok := hex4(at + 2)
	if !ok {
		s.pos = at
		return 0, 0, s.errf("invalid \\u escape")
	}
	n := 6
	if utf16.IsSurrogate(r) {
		if at+6+6 <= len(s.buf) && s.buf[at+6] == '\\' && s.buf[at+7] == 'u' {
			if r2, ok := hex4(at + 8); ok {
				if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
					return dec, 12, nil
				}
			}
		}
		// Lone surrogate: replacement character, matching encoding/json.
		return utf8.RuneError, n, nil
	}
	return r, n, nil
}

// scanInt decodes a (possibly negative) integer timestamp.
func (s *Scanner) scanInt() (int64, error) {
	i := s.pos
	neg := false
	if i < len(s.buf) && s.buf[i] == '-' {
		neg = true
		i++
	}
	start := i
	var v int64
	for i < len(s.buf) && s.buf[i] >= '0' && s.buf[i] <= '9' {
		d := int64(s.buf[i] - '0')
		if v > (1<<63-1-d)/10 {
			return 0, s.errf("integer overflow")
		}
		v = v*10 + d
		i++
	}
	if i == start {
		return 0, s.errf("expected integer")
	}
	// Reject the fraction/exponent forms a real timestamp never has.
	if i < len(s.buf) && (s.buf[i] == '.' || s.buf[i] == 'e' || s.buf[i] == 'E') {
		s.pos = i
		return 0, s.errf("non-integer timestamp")
	}
	s.pos = i
	if neg {
		v = -v
	}
	return v, nil
}

// numberByte reports whether b can be part of a number in
// strconv.ParseFloat's decimal grammar.
func numberByte(b byte) bool {
	return b >= '0' && b <= '9' || b == '.' || b == '-' || b == '+' || b == 'e' || b == 'E'
}

// scanLenientTS decodes a timestamp written as a number or as a string,
// in strconv.ParseFloat's grammar, truncating toward zero. A value no
// int64 holds — NaN, an infinity, or outside [-2^63, 2^63) once rounded
// to a float64 — is an error: int64(float64) of one is whatever the
// machine makes of it.
func (s *Scanner) scanLenientTS() (int64, error) {
	// What archives hold: a bare run of up to 15 digits, which a float64
	// holds exactly, so the integer accumulated in place is the answer.
	var v int64
	i := s.pos
	for i < len(s.buf) && i-s.pos <= 15 && s.buf[i] >= '0' && s.buf[i] <= '9' {
		v = v*10 + int64(s.buf[i]-'0')
		i++
	}
	if n := i - s.pos; n >= 1 && n <= 15 && i < len(s.buf) && !numberByte(s.buf[i]) {
		s.pos = i
		return v, nil
	}
	return s.scanLenientTSSlow()
}

// scanLenientTSSlow is scanLenientTS for every other spelling — a sign, a
// point, an exponent, quotes, 16 digits or more — and the reference the
// digit fast path is fuzzed against.
func (s *Scanner) scanLenientTSSlow() (int64, error) {
	var tok []byte
	if s.pos < len(s.buf) && s.buf[s.pos] == '"' {
		var err error
		if tok, err = s.scanString(); err != nil {
			return 0, err
		}
	} else {
		start := s.pos
		for s.pos < len(s.buf) && numberByte(s.buf[s.pos]) {
			s.pos++
		}
		tok = s.buf[start:s.pos]
	}
	// Again no float for up to 15 bytes of integer, signed or quoted.
	if len(tok) <= 15 {
		if v, err := strconv.ParseInt(string(tok), 10, 64); err == nil {
			return v, nil
		}
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil || !(f >= -1<<63 && f < 1<<63) {
		return 0, s.errf("bad timestamp %q", tok)
	}
	return int64(f), nil
}

// scanStringArray decodes ["a","b",...] into views appended to the flat
// attrs backing. null is accepted as an empty list (encoding/json
// compatibility for omitted slices).
func (s *Scanner) scanStringArray() ([][]byte, error) {
	if s.pos+4 <= len(s.buf) && string(s.buf[s.pos:s.pos+4]) == "null" {
		s.pos += 4
		return nil, nil
	}
	if s.pos >= len(s.buf) || s.buf[s.pos] != '[' {
		return nil, s.errf("expected array of strings")
	}
	s.pos++
	mark := len(s.attrs)
	s.skipWS()
	if s.pos < len(s.buf) && s.buf[s.pos] == ']' {
		s.pos++
		return nil, nil
	}
	for {
		s.skipWS()
		v, err := s.scanString()
		if err != nil {
			return nil, err
		}
		s.attrs = append(s.attrs, v)
		s.skipWS()
		if s.pos >= len(s.buf) {
			return nil, s.errf("unexpected end of input inside array")
		}
		switch s.buf[s.pos] {
		case ',':
			s.pos++
		case ']':
			s.pos++
			return s.attrs[mark:len(s.attrs):len(s.attrs)], nil
		default:
			return nil, s.errf("expected ',' or ']' in array, got %q", s.buf[s.pos])
		}
	}
}

// skipValue structurally skips one JSON value of any type.
func (s *Scanner) skipValue() error {
	s.skipWS()
	if s.pos >= len(s.buf) {
		return s.errf("unexpected end of input")
	}
	switch b := s.buf[s.pos]; {
	case b == '"':
		// Skip without unescaping: find the closing quote.
		i := s.pos + 1
		for i < len(s.buf) {
			switch s.buf[i] {
			case '\\':
				i += 2
			case '"':
				s.pos = i + 1
				return nil
			default:
				i++
			}
		}
		s.pos = len(s.buf)
		return s.errf("unterminated string")
	case b == '{' || b == '[':
		depth := 0
		i := s.pos
		for i < len(s.buf) {
			switch s.buf[i] {
			case '{', '[':
				depth++
				i++
			case '}', ']':
				depth--
				i++
				if depth == 0 {
					s.pos = i
					return nil
				}
			case '"':
				i++
				for i < len(s.buf) {
					if s.buf[i] == '\\' {
						i += 2
					} else if s.buf[i] == '"' {
						i++
						break
					} else {
						i++
					}
				}
			default:
				i++
			}
		}
		s.pos = len(s.buf)
		return s.errf("unterminated %c", b)
	default:
		// Number / true / false / null: scan to a delimiter.
		i := s.pos
		for i < len(s.buf) {
			switch s.buf[i] {
			case ',', '}', ']', ' ', '\t', '\n', '\r':
				s.pos = i
				return nil
			}
			i++
		}
		s.pos = len(s.buf)
		return nil
	}
}
