package proxy

import (
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/codec"
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
	if err := writeBlock(&buf, wireBlock{Flag: blockFlagRaw, RawLen: uint32(len(content)), Payload: content}); err != nil {
		t.Fatal(err)
	}
	if err := writeEnd(&buf, crcOf(content)); err != nil {
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
	b, _, ok, err := readBlock(r)
	if err != nil || !ok || b.Flag != blockFlagRaw || b.RawLen != 9 || string(b.Payload) != "123456789" {
		t.Fatalf("readBlock = %+v, ok=%v, %v", b, ok, err)
	}
	codec.PutBuf(b.Payload)
	_, crc, ok, err := readBlock(r)
	if err != nil || ok || crc != 0xCBF43926 {
		t.Fatalf("end frame: crc=%#x ok=%v err=%v, want crc 0xcbf43926", crc, ok, err)
	}
	if r.Len() != 0 {
		t.Fatalf("%d trailing bytes after the end frame", r.Len())
	}
}
