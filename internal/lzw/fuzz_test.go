package lzw

import (
	"bytes"
	"testing"
)

// fuzzMaxSize bounds decoder output under fuzzing, the way the proxy
// client bounds it by a block's claimed raw length.
const fuzzMaxSize = 1 << 20

// FuzzLZWDecompress feeds arbitrary bytes to the decoder the proxy client
// runs on server-supplied LZW blocks. It must never panic or exceed
// maxSize; whatever it accepts must survive a round trip through our own
// encoder; and the append form must extend its prefix with exactly the
// one-shot output, leaving the prefix untouched.
func FuzzLZWDecompress(f *testing.F) {
	for _, s := range []string{"", "a", "TOBEORNOTTOBEORTOBEORNOT", string(bytes.Repeat([]byte("energy "), 2000))} {
		for _, bits := range []int{MinBits, 12, MaxBits} {
			comp, err := Compress([]byte(s), bits)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(comp)
			f.Add(comp[:len(comp)/2])
		}
	}
	f.Add([]byte{magicByte1, magicByte2})
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := Decompress(data, fuzzMaxSize)
		if err != nil {
			return
		}
		if len(out) > fuzzMaxSize {
			t.Fatalf("decoded %d bytes past maxSize %d", len(out), fuzzMaxSize)
		}
		comp, err := Compress(out, MaxBits)
		if err != nil {
			t.Fatalf("re-compress: %v", err)
		}
		if again, err := Decompress(comp, 0); err != nil || !bytes.Equal(again, out) {
			t.Fatalf("round trip of accepted output failed: %v", err)
		}
		prefix := []byte("prefix")
		app, err := DecompressAppend(append([]byte{}, prefix...), data, fuzzMaxSize)
		if err != nil || !bytes.Equal(app[:len(prefix)], prefix) || !bytes.Equal(app[len(prefix):], out) {
			t.Fatalf("DecompressAppend disagrees with Decompress (err %v)", err)
		}
	})
}
