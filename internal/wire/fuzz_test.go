package wire

import (
	"bytes"
	"testing"
)

// FuzzReadFrame throws arbitrary bytes at the frame reader both protocols
// share (PXY3 responses, PXY-P fetch answers and puts): oversized payload
// or raw lengths must be refused before allocation, unknown flags, raw
// length mismatches and payload-CRC mismatches must error, and accepted
// frames must round-trip.
func FuzzReadFrame(f *testing.F) {
	// Raw block, compressed block, end frame, built by the writers so the
	// CRCs are valid.
	var raw, comp, end bytes.Buffer
	_ = WriteBlock(&raw, false, 5, []byte("hello"))
	_ = WriteBlock(&comp, true, 256, []byte("zzzz"))
	_ = WriteEnd(&end, 0xDEADBEEF)
	f.Add(raw.Bytes())
	f.Add(comp.Bytes())
	f.Add(end.Bytes())
	// Oversized payload length, oversized raw length, bad flag, corrupted
	// payload (CRC mismatch), truncated header and payload.
	f.Add([]byte("\x01\x00\x00\x00\x00\xff\xff\xff\xff\x00\x00\x00\x00"))
	f.Add([]byte("\x01\xff\xff\xff\xff\x00\x00\x00\x04\x00\x00\x00\x00zzzz"))
	f.Add([]byte("\x07\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add(append(raw.Bytes()[:raw.Len()-1], 'X'))
	f.Add([]byte("\x00\x00\x00"))
	f.Add(raw.Bytes()[:raw.Len()-2])
	// A PXY-P end frame (its value is a block count) and a raw frame
	// whose two lengths disagree.
	var count bytes.Buffer
	_ = WriteEnd(&count, 2)
	f.Add(count.Bytes())
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x00\x04\x00\x00\x00\x00zzzz"))

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ReadHeader(bytes.NewReader(data))
		if err != nil {
			return
		}
		if h.End() {
			// Re-encode and confirm the value survives.
			var buf bytes.Buffer
			if err := WriteEnd(&buf, h.Value); err != nil {
				t.Fatal(err)
			}
			back, err := ReadHeader(&buf)
			if err != nil || !back.End() || back.Value != h.Value {
				t.Fatalf("end frame round trip: %+v -> %+v, %v", h, back, err)
			}
			return
		}
		if h.PayLen > MaxPayload || h.RawLen > MaxRaw {
			t.Fatalf("accepted lengths %d/%d over the caps", h.RawLen, h.PayLen)
		}
		r := bytes.NewReader(data[HeaderLen:])
		p, err := ReadPayload(r, h, make([]byte, h.PayLen))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteBlock(&buf, h.Compressed(), h.RawLen, p); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data[:HeaderLen+len(p)]) {
			t.Fatalf("re-encode of accepted frame = %x, read %x", buf.Bytes(), data[:HeaderLen+len(p)])
		}
	})
}
