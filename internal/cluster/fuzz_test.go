package cluster

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// FuzzReadPeerRequest throws arbitrary bytes at the PXY-P request parser,
// which any TCP client of a node's peer listener reaches: bad magic,
// truncation and oversized name or fingerprint lengths must error, never
// panic or over-allocate; requests the parser accepts must survive a
// write/read round trip unchanged.
func FuzzReadPeerRequest(f *testing.F) {
	for _, h := range []string{goldenPeerFetch, goldenPeerPut, goldenPeerInval} {
		b, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-1])                                 // truncated CRC
		f.Add(append(b[:len(b)-1:len(b)-1], b[len(b)-1]^1)) // bad CRC
	}
	f.Add([]byte("QXYP\x01\x00\x00"))
	f.Add([]byte("PXYP\x01\xff\xff"))
	f.Add([]byte("PXYP\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xff\xff"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := readPeerRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(req.Key.Name) > maxPeerName || len(req.Key.FP) > maxPeerFP {
			t.Fatalf("accepted key %d/%d bytes over the caps", len(req.Key.Name), len(req.Key.FP))
		}
		var buf bytes.Buffer
		if err := writePeerRequest(&buf, req); err != nil {
			t.Fatalf("re-encode of accepted request failed: %v", err)
		}
		back, err := readPeerRequest(&buf)
		if err != nil || back != req {
			t.Fatalf("round trip changed request: %+v -> %+v, %v", req, back, err)
		}
	})
}
