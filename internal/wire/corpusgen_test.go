//go:build corpusgen

package wire

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestRegenFuzzCorpus rewrites the checked-in FuzzReadFrame seeds in the
// current frame format. Run with:
// go test -tags corpusgen -run TestRegenFuzzCorpus ./internal/wire
func TestRegenFuzzCorpus(t *testing.T) {
	write := func(seedName string, data []byte) {
		dir := filepath.Join("testdata", "fuzz", "FuzzReadFrame")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, seedName), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("wrote FuzzReadFrame/%s (%d bytes)\n", seedName, len(data))
	}

	var raw, end bytes.Buffer
	if err := WriteBlock(&raw, false, 4, []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := WriteEnd(&end, 0x12345678); err != nil {
		t.Fatal(err)
	}
	write("seed-raw-block", raw.Bytes())
	write("seed-end-frame", end.Bytes())
	write("seed-oversized-payload", []byte("\x01\x00\x00\x00\x08\x7f\xff\xff\xff\x00\x00\x00\x00"))
	write("seed-bad-payload-crc", append(raw.Bytes()[:raw.Len()-1], raw.Bytes()[raw.Len()-1]^0xFF))
}
