package wire

import (
	"encoding/binary"
	"fmt"
)

// Binary ingest frame layout (all integers little-endian varints unless
// noted):
//
//	magic   "CBF1"                      (4 bytes)
//	count   uint32 big-endian           (4 bytes)
//	count × comment:
//	  flags   byte                      (1 = urls, 2 = tags, 4 = reply)
//	  author  uvarint len, bytes
//	  page    uvarint len, bytes
//	  ts      zigzag varint
//	  [urls]  uvarint n, n × (uvarint len, bytes)
//	  [tags]  uvarint n, n × (uvarint len, bytes)
//	  [reply] uvarint len, bytes
//
// Strings are raw UTF-8 with no escaping, so decoding is pure slicing:
// every field view aliases the frame buffer and nothing is copied.
const (
	frameMagic  = "CBF1"
	frameHeader = 8

	flagURLs  = 1
	flagTags  = 2
	flagReply = 4

	// maxFrameStrings bounds one comment's attribute list (sanity cap
	// against corrupt counts; mirrors ygmnet's defensive frame limits).
	maxFrameStrings = 1 << 16
)

// Encoder builds a binary ingest frame. The zero value is ready to use;
// Reset reuses the buffer for the next frame.
type Encoder struct {
	buf   []byte
	count uint32
}

// NewEncoder returns an Encoder with an initialized header.
func NewEncoder() *Encoder {
	e := &Encoder{}
	e.Reset()
	return e
}

// Reset drops the frame body and re-arms the encoder, keeping capacity.
func (e *Encoder) Reset() {
	e.buf = append(e.buf[:0], frameMagic...)
	e.buf = append(e.buf, 0, 0, 0, 0)
	e.count = 0
}

// Add appends one attribute-free comment.
func (e *Encoder) Add(author, page string, ts int64) {
	e.AddAttrs(author, page, ts, nil, nil, "")
}

// AddAttrs appends one comment with optional signal attributes. An empty
// replyTo means no reply target, matching the JSON convention.
func (e *Encoder) AddAttrs(author, page string, ts int64, urls, tags []string, replyTo string) {
	var flags byte
	if len(urls) > 0 {
		flags |= flagURLs
	}
	if len(tags) > 0 {
		flags |= flagTags
	}
	if replyTo != "" {
		flags |= flagReply
	}
	e.buf = append(e.buf, flags)
	e.buf = appendString(e.buf, author)
	e.buf = appendString(e.buf, page)
	e.buf = binary.AppendVarint(e.buf, ts)
	if flags&flagURLs != 0 {
		e.buf = binary.AppendUvarint(e.buf, uint64(len(urls)))
		for _, u := range urls {
			e.buf = appendString(e.buf, u)
		}
	}
	if flags&flagTags != 0 {
		e.buf = binary.AppendUvarint(e.buf, uint64(len(tags)))
		for _, t := range tags {
			e.buf = appendString(e.buf, t)
		}
	}
	if flags&flagReply != 0 {
		e.buf = appendString(e.buf, replyTo)
	}
	e.count++
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Bytes patches the count into the header and returns the finished
// frame. The slice aliases the encoder's buffer: valid until Reset.
func (e *Encoder) Bytes() []byte {
	binary.BigEndian.PutUint32(e.buf[4:8], e.count)
	return e.buf
}

// FrameScanner decodes a binary ingest frame into zero-copy views. It
// implements Reader.
type FrameScanner struct {
	buf   []byte
	pos   int
	left  uint32
	attrs [][]byte
}

// NewFrameScanner validates the frame header and returns a scanner over
// the body.
func NewFrameScanner(buf []byte) (*FrameScanner, error) {
	if len(buf) < frameHeader {
		return nil, fmt.Errorf("frame: truncated header (%d bytes)", len(buf))
	}
	if string(buf[:4]) != frameMagic {
		return nil, fmt.Errorf("frame: bad magic %q", buf[:4])
	}
	count := binary.BigEndian.Uint32(buf[4:8])
	return &FrameScanner{buf: buf, pos: frameHeader, left: count}, nil
}

func (f *FrameScanner) errf(format string, args ...any) error {
	return fmt.Errorf("frame: offset %d: %s", f.pos, fmt.Sprintf(format, args...))
}

// Next decodes the next comment, returning (false, nil) once the
// declared count has been consumed and the buffer is exhausted.
func (f *FrameScanner) Next(c *Comment) (bool, error) {
	if f.left == 0 {
		if f.pos != len(f.buf) {
			return false, f.errf("%d trailing bytes after %s", len(f.buf)-f.pos, "declared count")
		}
		return false, nil
	}
	if f.pos >= len(f.buf) {
		return false, f.errf("truncated frame: %d comments missing", f.left)
	}
	*c = Comment{}
	flags := f.buf[f.pos]
	f.pos++
	var err error
	if c.Author, err = f.readString(); err != nil {
		return false, err
	}
	if c.Page, err = f.readString(); err != nil {
		return false, err
	}
	ts, n := binary.Varint(f.buf[f.pos:])
	if n <= 0 {
		return false, f.errf("bad timestamp varint")
	}
	f.pos += n
	c.TS = ts
	if flags&flagURLs != 0 {
		if c.URLs, err = f.readStringList(); err != nil {
			return false, err
		}
	}
	if flags&flagTags != 0 {
		if c.Tags, err = f.readStringList(); err != nil {
			return false, err
		}
	}
	if flags&flagReply != 0 {
		if c.ReplyTo, err = f.readString(); err != nil {
			return false, err
		}
	}
	f.left--
	return true, nil
}

func (f *FrameScanner) readString() ([]byte, error) {
	n, w := binary.Uvarint(f.buf[f.pos:])
	if w <= 0 {
		return nil, f.errf("bad string length varint")
	}
	f.pos += w
	if n > uint64(len(f.buf)-f.pos) {
		return nil, f.errf("string length %d exceeds frame", n)
	}
	v := f.buf[f.pos : f.pos+int(n) : f.pos+int(n)]
	f.pos += int(n)
	return v, nil
}

func (f *FrameScanner) readStringList() ([][]byte, error) {
	n, w := binary.Uvarint(f.buf[f.pos:])
	if w <= 0 {
		return nil, f.errf("bad list length varint")
	}
	if n > maxFrameStrings {
		return nil, f.errf("list length %d exceeds cap", n)
	}
	f.pos += w
	mark := len(f.attrs)
	for i := uint64(0); i < n; i++ {
		v, err := f.readString()
		if err != nil {
			return nil, err
		}
		f.attrs = append(f.attrs, v)
	}
	return f.attrs[mark:len(f.attrs):len(f.attrs)], nil
}
