package proxy

import (
	"bytes"
	"testing"
)

// FuzzReadRequest throws arbitrary bytes at the PXY3 request parser:
// malformed magic, truncated frames and oversized length fields must
// produce errors, never a panic or an over-allocation; frames the parser
// accepts must survive a write/read round trip unchanged.
func FuzzReadRequest(f *testing.F) {
	// Well-formed GET (with a resume offset and a request ID) and LIST
	// requests, built by the writer so their trailing CRCs are valid.
	var get, getEx, list bytes.Buffer
	_ = writeRequest(&get, request{Op: opGet, Name: "doc.xml", Scheme: 1, Mode: ModeSelective, Offset: 128_000, ReqID: 0xFEED})
	_ = writeRequest(&getEx, request{Op: opGetEx, Name: "doc.xml", Scheme: 1, Mode: ModeSelective, Offset: 128_000, ReqID: 0xFEED, Class: 3, BudgetMJ: 2500})
	_ = writeRequest(&list, request{Op: opList})
	f.Add(get.Bytes())
	f.Add(getEx.Bytes())
	f.Add(list.Bytes())
	// An extended GET truncated at the old tail length: the CRC must
	// refuse it rather than the parser misreading the attribute bytes.
	f.Add(getEx.Bytes()[:getEx.Len()-5])
	// Bad magic (including the previous protocol generation), bad CRC,
	// truncation at every interesting boundary, oversized name.
	f.Add([]byte("QXY3\x02\x00\x07doc.xml\x01\x03"))
	f.Add(append(get.Bytes()[:get.Len()-1], 0xAA)) // last CRC byte flipped
	f.Add([]byte("PXY2\x02\x00\x07doc"))
	f.Add([]byte("PXY3"))
	f.Add([]byte("PXY3\x02"))
	f.Add([]byte("PXY3\x02\x00\x07doc"))
	f.Add([]byte("PXY3\x02\xff\xff"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := readRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(req.Name) > maxNameLen {
			t.Fatalf("accepted name of %d bytes, cap is %d", len(req.Name), maxNameLen)
		}
		var buf bytes.Buffer
		if err := writeRequest(&buf, req); err != nil {
			t.Fatalf("re-encode of accepted request failed: %v", err)
		}
		back, err := readRequest(&buf)
		if err != nil {
			t.Fatalf("re-decode of accepted request failed: %v", err)
		}
		if back != req {
			t.Fatalf("round trip changed request: %+v != %+v", back, req)
		}
	})
}
