package flate

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"testing/quick"
)

// Known-answer tests for the container checksums. The gzip and zlib
// writers take their CRC-32 and Adler-32 from the standard library; these
// pin whole container outputs of fixed inputs to committed bytes, so a
// change to the checksum source, the trailer layout or the DEFLATE encoder
// shows up as a byte diff. The trailers carry the published check values:
// CRC-32/IEEE of "123456789" is 0xCBF43926, Adler-32 of "Wikipedia" is
// 0x11E60398.

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCRC32KnownVectors(t *testing.T) {
	cases := []struct {
		in   string
		crc  uint32
		gzip string // GzipCompress(in, 6)
	}{
		{"", 0x00000000, "1f8b080000000000000303000000000000000000"},
		{"123456789", 0xCBF43926, "1f8b080000000000000333343236313533b7b004002639f4cb09000000"},
		{"Wikipedia", 0xADAAC02E, "1f8b08000000000000030bcfccce2c484dc94c04002ec0aaad09000000"},
	}
	for _, c := range cases {
		want := mustHex(t, c.gzip)
		got, err := GzipCompress([]byte(c.in), 6)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("GzipCompress(%q) = %x, want %x", c.in, got, want)
		}
		if par, err := GzipCompressParallel([]byte(c.in), 6, 2); err != nil || !bytes.Equal(par, want) {
			t.Errorf("GzipCompressParallel(%q) = %x, %v; want %x", c.in, par, err, want)
		}
		if crc := binary.LittleEndian.Uint32(want[len(want)-8:]); crc != c.crc {
			t.Errorf("%q: trailer CRC-32 %#x, want %#x", c.in, crc, c.crc)
		}
		raw, err := GzipDecompress(want, 0)
		if err != nil || string(raw) != c.in {
			t.Errorf("GzipDecompress(%x) = %q, %v; want %q", want, raw, err, c.in)
		}
	}
}

func TestAdler32KnownVectors(t *testing.T) {
	cases := []struct {
		in    string
		adler uint32
		zlib  string // ZlibCompress(in, 6)
	}{
		{"", 0x00000001, "789c030000000001"},
		{"123456789", 0x091E01DE, "789c33343236313533b7b00400091e01de"},
		{"Wikipedia", 0x11E60398, "789c0bcfccce2c484dc94c040011e60398"},
	}
	for _, c := range cases {
		want := mustHex(t, c.zlib)
		got, err := ZlibCompress([]byte(c.in), 6)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("ZlibCompress(%q) = %x, want %x", c.in, got, want)
		}
		if par, err := ZlibCompressParallel([]byte(c.in), 6, 2); err != nil || !bytes.Equal(par, want) {
			t.Errorf("ZlibCompressParallel(%q) = %x, %v; want %x", c.in, par, err, want)
		}
		if adler := binary.BigEndian.Uint32(want[len(want)-4:]); adler != c.adler {
			t.Errorf("%q: trailer Adler-32 %#x, want %#x", c.in, adler, c.adler)
		}
		raw, err := ZlibDecompress(want, 0)
		if err != nil || string(raw) != c.in {
			t.Errorf("ZlibDecompress(%x) = %q, %v; want %q", want, raw, err, c.in)
		}
	}
}

// TestStreamingWriterKnownVector pins the streaming writer, which folds
// the CRC-32 in segment by segment, to committed bytes.
func TestStreamingWriterKnownVector(t *testing.T) {
	want := mustHex(t, "1f8b080000000000000332343236313533b7b004040000ffff2639f4cb09000000")
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("123456789")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("streaming gzip of %q = %x, want %x", "123456789", buf.Bytes(), want)
	}
}

// TestQuickStreamingCRCEqualsOneShot: however the input is split across
// Write and Flush calls, the streaming writer's incrementally updated
// CRC-32 equals the one-shot writer's.
func TestQuickStreamingCRCEqualsOneShot(t *testing.T) {
	f := func(a, b []byte) bool {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, 6)
		if err != nil {
			return false
		}
		if _, err := w.Write(a); err != nil || w.Flush() != nil {
			return false
		}
		if _, err := w.Write(b); err != nil || w.Close() != nil {
			return false
		}
		one, err := GzipCompress(append(append([]byte{}, a...), b...), 6)
		if err != nil {
			return false
		}
		s := buf.Bytes()
		return bytes.Equal(s[len(s)-8:], one[len(one)-8:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTrailerDetectsSingleBitFlip: the decoders verify the checksum, so a
// flipped bit anywhere in the gzip CRC-32 or zlib Adler-32 trailer fails
// the stream.
func TestTrailerDetectsSingleBitFlip(t *testing.T) {
	data := bytes.Repeat([]byte("energy"), 100)
	gz, err := GzipCompress(data, 6)
	if err != nil {
		t.Fatal(err)
	}
	zl, err := ZlibCompress(data, 6)
	if err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < 32; bit++ {
		g := append([]byte{}, gz...)
		g[len(g)-8+bit/8] ^= 1 << (bit % 8)
		if _, err := GzipDecompress(g, 0); err == nil {
			t.Errorf("gzip: CRC-32 bit %d flip not detected", bit)
		}
		z := append([]byte{}, zl...)
		z[len(z)-4+bit/8] ^= 1 << (bit % 8)
		if _, err := ZlibDecompress(z, 0); err == nil {
			t.Errorf("zlib: Adler-32 bit %d flip not detected", bit)
		}
	}
}
