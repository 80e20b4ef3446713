package bwt

import (
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/bitio"
	"repro/internal/huffman"
)

// Container-level errors.
var (
	ErrCorrupt         = errors.New("bwt: corrupt stream")
	errMissingRunCount = fmt.Errorf("%w: RLE1 run missing count byte", ErrCorrupt)
	errBlockTooLarge   = fmt.Errorf("%w: block exceeds size limit", ErrCorrupt)
	errBadSymbol       = fmt.Errorf("%w: symbol out of range", ErrCorrupt)
	errMissingEOB      = fmt.Errorf("%w: missing end-of-block", ErrCorrupt)
)

const (
	// blockSizeUnit is bzip2's 100k block-size granularity; level N uses
	// N*blockSizeUnit bytes per block.
	blockSizeUnit = 100 * 1000

	maxHuffBits = 20

	magic0 = 'B'
	magic1 = 'Z'
	magic2 = 'r' // our simplified container, not bit-compatible with 'h'
)

// Compress compresses data with block size level*100k (level 1..9; the
// paper uses bzip2 -9).
func Compress(data []byte, level int) ([]byte, error) {
	if level < 1 || level > 9 {
		return nil, fmt.Errorf("bwt: level %d out of range 1..9", level)
	}
	out := &sliceWriter{b: []byte{magic0, magic1, magic2, byte('0' + level)}}
	bw := bitio.NewMSBWriter(out)
	blockSize := level * blockSizeUnit

	for start := 0; start < len(data) || (start == 0 && len(data) == 0); start += blockSize {
		if len(data) == 0 {
			break
		}
		end := start + blockSize
		if end > len(data) {
			end = len(data)
		}
		if err := compressBlock(bw, data[start:end]); err != nil {
			return nil, err
		}
	}
	bw.WriteBits(0, 1) // end-of-stream marker
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return out.b, nil
}

func compressBlock(bw *bitio.MSBWriter, raw []byte) error {
	bw.WriteBits(1, 1) // block marker
	crc := crc32.ChecksumIEEE(raw)

	rle := rle1Encode(raw)
	last, ptr := Transform(rle)
	mtf := mtfEncode(last)
	syms := rle2Encode(mtf)

	freq := make([]int, numSymbols)
	for _, s := range syms {
		freq[s]++
	}
	lens, err := huffman.BuildLengths(freq, maxHuffBits)
	if err != nil {
		return err
	}
	codes, err := huffman.CanonicalCodes(lens)
	if err != nil {
		return err
	}

	bw.WriteBits(uint64(crc), 32)
	bw.WriteBits(uint64(len(rle)), 32)
	bw.WriteBits(uint64(ptr), 32)
	for _, l := range lens {
		bw.WriteBits(uint64(l), 5)
	}
	for _, s := range syms {
		bw.WriteBits(uint64(codes[s]), uint(lens[s]))
	}
	return bw.Err()
}

// Decompress decodes a stream produced by Compress. maxSize, if positive,
// bounds the total decompressed size.
func Decompress(data []byte, maxSize int) ([]byte, error) {
	return DecompressAppend(nil, data, maxSize)
}

// DecompressAppend is Decompress appending to dst (which may be nil or
// recycled from a pool); maxSize bounds the appended bytes.
func DecompressAppend(dst, data []byte, maxSize int) ([]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("%w: too short", ErrCorrupt)
	}
	if data[0] != magic0 || data[1] != magic1 || data[2] != magic2 {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	level := int(data[3] - '0')
	if level < 1 || level > 9 {
		return nil, fmt.Errorf("%w: bad level %q", ErrCorrupt, data[3])
	}
	br := bitio.NewMSBReader(&sliceReader{b: data[4:]})
	blockLimit := level * blockSizeUnit

	out := dst
	base := len(out)
	for {
		marker := br.ReadBits(1)
		if br.Err() != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, br.Err())
		}
		if marker == 0 {
			break
		}
		block, err := decompressBlock(br, blockLimit)
		if err != nil {
			return nil, err
		}
		if maxSize > 0 && len(out)-base+len(block) > maxSize {
			return nil, fmt.Errorf("%w: output exceeds limit %d", ErrCorrupt, maxSize)
		}
		out = append(out, block...)
	}
	if out == nil {
		out = []byte{}
	}
	return out, nil
}

func decompressBlock(br *bitio.MSBReader, blockLimit int) ([]byte, error) {
	crc := uint32(br.ReadBits(32))
	rleLen := int(br.ReadBits(32))
	ptr := int(br.ReadBits(32))
	if br.Err() != nil {
		return nil, fmt.Errorf("%w: block header: %v", ErrCorrupt, br.Err())
	}
	// RLE1 never expands by more than 25% plus slack; anything bigger than
	// the level's block budget is corrupt.
	if rleLen < 0 || rleLen > blockLimit+blockLimit/4+64 {
		return nil, fmt.Errorf("%w: rle length %d", ErrCorrupt, rleLen)
	}
	if ptr < 0 || (rleLen > 0 && ptr >= rleLen) {
		return nil, fmt.Errorf("%w: pointer %d out of block %d", ErrCorrupt, ptr, rleLen)
	}
	lens := make([]uint8, numSymbols)
	for i := range lens {
		v := br.ReadBits(5)
		if v > maxHuffBits {
			return nil, fmt.Errorf("%w: code length %d", ErrCorrupt, v)
		}
		lens[i] = uint8(v)
	}
	if br.Err() != nil {
		return nil, fmt.Errorf("%w: code lengths: %v", ErrCorrupt, br.Err())
	}
	dec, err := huffman.NewDecoder(lens)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	syms := make([]uint16, 0, rleLen/2+16)
	for {
		s, err := dec.DecodeMSB(br)
		if err != nil {
			return nil, fmt.Errorf("%w: symbol stream", ErrCorrupt)
		}
		syms = append(syms, uint16(s))
		if s == symEOB {
			break
		}
		if len(syms) > 2*rleLen+64 {
			return nil, fmt.Errorf("%w: runaway symbol stream", ErrCorrupt)
		}
	}
	mtf, err := rle2Decode(syms, rleLen)
	if err != nil {
		return nil, err
	}
	if len(mtf) != rleLen {
		return nil, fmt.Errorf("%w: MTF length %d, header says %d", ErrCorrupt, len(mtf), rleLen)
	}
	last := mtfDecode(mtf)
	rle := Inverse(last, ptr)
	raw, err := rle1Decode(rle)
	if err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(raw) != crc {
		return nil, fmt.Errorf("%w: block CRC mismatch", ErrCorrupt)
	}
	return raw, nil
}

type sliceWriter struct{ b []byte }

func (s *sliceWriter) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

type sliceReader struct{ b []byte }

func (s *sliceReader) Read(p []byte) (int, error) {
	if len(s.b) == 0 {
		return 0, errEOF
	}
	n := copy(p, s.b)
	s.b = s.b[n:]
	return n, nil
}

var errEOF = errors.New("EOF")
