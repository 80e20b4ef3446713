package proxy

import (
	"bytes"
	"encoding/hex"
	"hash/crc32"
	"testing"

	"repro/internal/codec"
	"repro/internal/wire"
)

// TestWireGoldenResponse pins one whole PXY3 GET response — header, one
// raw block and the end frame — for the content "123456789" to committed
// bytes. Every CRC field here is CRC-32/IEEE; the block's payload CRC and
// the end frame's content CRC are both the published check value
// 0xCBF43926.
func TestWireGoldenResponse(t *testing.T) {
	const golden = "00" + "0000000000000009" + "01" + "0000000000000000" + "8c75f0c4" + // header: status, raw size, scheme, offset, CRC
		"00" + "00000009" + "00000009" + "cbf43926" + "313233343536373839" + // raw block: flag, raw len, payload len, payload CRC, payload
		"ff" + "cbf43926" + "00000000" + "754fd18f" // end frame: flag, content CRC, zero, frame CRC
	want, err := hex.DecodeString(golden)
	if err != nil {
		t.Fatal(err)
	}
	content := []byte("123456789")
	var buf bytes.Buffer
	if err := writeGetHeader(&buf, getHeader{Status: statusOK, RawSize: uint64(len(content)), Scheme: codec.Gzip}); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteBlock(&buf, false, uint32(len(content)), content); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteEnd(&buf, crc32.ChecksumIEEE(content)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("PXY3 response = %x\nwant             %x", buf.Bytes(), want)
	}

	// And the committed bytes parse back to the same frames.
	r := bytes.NewReader(want)
	hdr, err := readGetHeader(r)
	if err != nil || hdr.Status != statusOK || hdr.RawSize != 9 || hdr.Scheme != codec.Gzip || hdr.Offset != 0 {
		t.Fatalf("readGetHeader = %+v, %v", hdr, err)
	}
	h, err := wire.ReadHeader(r)
	if err != nil || h.Flag != wire.FlagRaw || h.RawLen != 9 || h.PayLen != 9 {
		t.Fatalf("ReadHeader = %+v, %v", h, err)
	}
	if p, err := wire.ReadPayload(r, h, make([]byte, h.PayLen)); err != nil || string(p) != "123456789" {
		t.Fatalf("ReadPayload = %q, %v", p, err)
	}
	h, err = wire.ReadHeader(r)
	if err != nil || !h.End() || h.Value != 0xCBF43926 {
		t.Fatalf("end frame = %+v, %v; want value 0xcbf43926", h, err)
	}
	if r.Len() != 0 {
		t.Fatalf("%d trailing bytes after the end frame", r.Len())
	}
}
