package wire

import (
	"bytes"
	"fmt"
	"testing"
)

// scanStringByteLoop is scanString as one byte at a time: the reference
// the word-at-a-time kernel is held to.
func scanStringByteLoop(s *Scanner) ([]byte, error) {
	if s.pos >= len(s.buf) || s.buf[s.pos] != '"' {
		return nil, s.errf("expected string")
	}
	s.pos++
	start := s.pos
	for i := s.pos; i < len(s.buf); i++ {
		switch s.buf[i] {
		case '"':
			out := s.buf[start:i]
			s.pos = i + 1
			return out, nil
		case '\\':
			return s.scanEscapedString(start, i)
		default:
			if s.buf[i] < 0x20 {
				s.pos = i
				return nil, s.errf("raw control character in string")
			}
		}
	}
	s.pos = len(s.buf)
	return nil, s.errf("unterminated string")
}

// sameScanString reports where scanString and the byte loop disagree on
// buf scanned from pos: view, error or cursor. It is empty when they
// agree.
func sameScanString(buf []byte, pos int) string {
	kernel, ref := Scanner{buf: buf, pos: pos}, Scanner{buf: buf, pos: pos}
	got, err := kernel.scanString()
	want, werr := scanStringByteLoop(&ref)
	if !bytes.Equal(got, want) || (got == nil) != (want == nil) || fmt.Sprint(err) != fmt.Sprint(werr) || kernel.pos != ref.pos {
		return fmt.Sprintf("%q from %d: kernel %q, %v, cursor %d; byte loop %q, %v, cursor %d",
			buf, pos, got, err, kernel.pos, want, werr, ref.pos)
	}
	return ""
}

// TestScanStringMatchesByteLoop: the word-at-a-time kernel gives the
// byte loop's view, error and cursor on strings of 0-40 bytes starting
// at buffer offsets 0-7; with every byte that ends a clean run ('"', '\\',
// 0x00-0x1f) and every kind of byte that does not (0x20, 0x7f, 0x80-0xff,
// a 4-byte UTF-8 rune) at every offset of the string; with the closing
// quote in each of the buffer's last eight bytes, where the final word
// is partial; and with no closing quote at all.
func TestScanStringMatchesByteLoop(t *testing.T) {
	var specials [][]byte
	for b := 0; b < 0x20; b++ {
		specials = append(specials, []byte{byte(b)})
	}
	specials = append(specials, []byte(`"`), []byte(`\`), []byte{0x20}, []byte{0x7f}, []byte("𝄞"))
	for b := 0x80; b <= 0xff; b++ {
		specials = append(specials, []byte{byte(b)})
	}
	check := func(buf []byte, pos int) {
		t.Helper()
		if msg := sameScanString(buf, pos); msg != "" {
			t.Fatal(msg)
		}
	}
	for off := 0; off < 8; off++ {
		prefix := bytes.Repeat([]byte{'x'}, off)
		for n := 0; n <= 40; n++ {
			body := make([]byte, n)
			for i := range body {
				body[i] = 'a' + byte(i%26)
			}
			str := append(append(append(prefix[:off:off], '"'), body...), '"')
			for tail := 0; tail <= 8; tail++ {
				check(append(str[:len(str):len(str)], bytes.Repeat([]byte{' '}, tail)...), off)
			}
			check(str[:len(str)-1], off) // unterminated
			for k := 0; k < n; k++ {
				for _, sp := range specials {
					b := append(append(append(str[:off+1+k:off+1+k], sp...), body[k+1:]...), '"', ',')
					check(b, off)
				}
			}
		}
	}
}
