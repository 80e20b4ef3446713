package cluster

import (
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/codec"
	"repro/internal/proxy"
	"repro/internal/selective"
)

// PXY-P golden frames. Every CRC field is CRC-32/IEEE; the raw block's
// payload CRC is the published check value 0xCBF43926 of "123456789".
const (
	goldenPeerFetch = "50585950" + "01" + // magic, op fetch
		"0007" + "646f632e747874" + "0000000000000003" + "01" + "0006" + "616c77617973" + // name, gen, scheme, fp
		"ff519c98" // CRC after the magic
	goldenPeerPut = "50585950" + "02" +
		"0007" + "646f632e747874" + "0000000000000003" + "01" + "0006" + "616c77617973" +
		"4cc5b15b"
	goldenPeerInval = "50585950" + "03" +
		"0007" + "646f632e747874" + "0000000000000004" + "00" + "0000" + // no scheme, empty fp
		"e705165b"
	goldenPeerStatusOK = "00" + "d202ef8d"                                                    // status, CRC
	goldenPeerBlocks   = "00" + "00000009" + "00000009" + "cbf43926" + "313233343536373839" + // raw block: flag, raw len, payload len, payload CRC, payload
		"01" + "00000100" + "00000004" + "19a07b3c" + "7a7a7a7a" + // compressed block
		"ff" + "00000002" + "00000000" + "d5864b85" // end frame: flag, block count, zero, frame CRC
)

func goldenBytes(t *testing.T, h string) []byte {
	t.Helper()
	b, err := hex.DecodeString(h)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPeerWireGoldenRequests pins the PXY-P fetch, put and inval request
// frames to committed bytes, and parses the committed bytes back.
func TestPeerWireGoldenRequests(t *testing.T) {
	key := proxy.ArtifactKey{Name: "doc.txt", Gen: 3, Scheme: codec.Gzip, FP: "always"}
	for _, tc := range []struct {
		name   string
		req    peerRequest
		golden string
	}{
		{"fetch", peerRequest{Op: peerOpFetch, Key: key}, goldenPeerFetch},
		{"put", peerRequest{Op: peerOpPut, Key: key}, goldenPeerPut},
		{"inval", peerRequest{Op: peerOpInval, Key: proxy.ArtifactKey{Name: "doc.txt", Gen: 4}}, goldenPeerInval},
	} {
		want := goldenBytes(t, tc.golden)
		var buf bytes.Buffer
		if err := writePeerRequest(&buf, tc.req); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s request = %x\nwant            %x", tc.name, buf.Bytes(), want)
		}
		got, err := readPeerRequest(bytes.NewReader(want))
		if err != nil || got != tc.req {
			t.Errorf("%s: readPeerRequest = %+v, %v; want %+v", tc.name, got, err, tc.req)
		}
	}
}

// TestPeerWireGoldenResponse pins an OK status and a block stream — one
// raw block, one compressed block and the end frame carrying the block
// count — to committed bytes.
func TestPeerWireGoldenResponse(t *testing.T) {
	want := goldenBytes(t, goldenPeerStatusOK)
	var buf bytes.Buffer
	if err := writePeerStatus(&buf, peerStatusOK); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("OK status = %x, want %x", buf.Bytes(), want)
	}
	if st, err := readPeerStatus(bytes.NewReader(want)); err != nil || st != peerStatusOK {
		t.Errorf("readPeerStatus = %d, %v", st, err)
	}

	want = goldenBytes(t, goldenPeerBlocks)
	buf.Reset()
	blocks := []selective.Block{
		{RawLen: 9, Payload: []byte("123456789")},
		{Compressed: true, RawLen: 256, Payload: []byte("zzzz")},
	}
	if err := writePeerBlocks(&buf, blocks); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("block stream = %x\nwant           %x", buf.Bytes(), want)
	}
}
