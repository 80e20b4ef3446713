package flate

import (
	"encoding/binary"
	"hash/adler32"
	"hash/crc32"
	"sync"
)

// Chunked ("pigz-style") compression: the input is split at fixed
// ParallelChunk boundaries, each chunk deflated independently as a run of
// non-final blocks ending in a sync flush, and the chunks stitched in order
// with one final empty stored block and the container trailer. Because the
// chunk geometry depends only on the input length, the output bytes are a
// pure function of (data, level) — never of how many workers compressed the
// chunks — so golden traces and same-seed replays stay deterministic under
// any parallelism. The cost is the per-chunk window reset: matches cannot
// reach back across a chunk boundary, which costs a fraction of a percent
// of compression factor at the 128 KiB chunk size.
const (
	// ParallelChunk is the independent compression unit.
	ParallelChunk = 128 << 10
	// ParallelThreshold is the input size at which the chunked format
	// engages; smaller inputs use the single-stream encoder.
	ParallelThreshold = 2 * ParallelChunk
)

// deflateChunks compresses each ParallelChunk of data at level on up to
// workers goroutines (workers <= 1 runs inline) and returns the per-chunk
// streams in order.
func deflateChunks(data []byte, level, workers int) ([][]byte, error) {
	n := (len(data) + ParallelChunk - 1) / ParallelChunk
	outs := make([][]byte, n)
	errs := make([]error, n)
	one := func(i int) {
		off := i * ParallelChunk
		end := off + ParallelChunk
		if end > len(data) {
			end = len(data)
		}
		hint := deflateSizeHint(end - off)
		outs[i], errs[i] = AppendDeflateSync(make([]byte, 0, hint), data[off:end], level)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			one(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range idx {
					one(i)
				}
			}()
		}
		for i := 0; i < n; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// stitch assembles header + chunks + final empty stored block into one
// buffer with room for trail more bytes.
func stitch(header []byte, chunks [][]byte, trail int) []byte {
	size := len(header) + len(FinalStoredBlock) + trail
	for _, c := range chunks {
		size += len(c)
	}
	out := make([]byte, 0, size)
	out = append(out, header...)
	for _, c := range chunks {
		out = append(out, c...)
	}
	return append(out, FinalStoredBlock[:]...)
}

// GzipCompressParallel is GzipCompress over the chunked format, compressing
// on up to workers goroutines. Output bytes depend only on (data, level):
// any workers value — including 1 — produces the identical stream. Inputs
// below ParallelThreshold fall through to GzipCompress unchanged.
func GzipCompressParallel(data []byte, level, workers int) ([]byte, error) {
	if len(data) < ParallelThreshold {
		return GzipCompress(data, level)
	}
	if err := validateLevel(level); err != nil {
		return nil, err
	}
	chunks, err := deflateChunks(data, level, workers)
	if err != nil {
		return nil, err
	}
	var hdr [gzipHdrLen]byte
	hdr[0], hdr[1], hdr[2] = gzipID1, gzipID2, gzipCM
	switch level {
	case 9:
		hdr[8] = gzipXFLBest
	case 1:
		hdr[8] = gzipXFLFast
	}
	hdr[9] = gzipOSUnix
	out := stitch(hdr[:], chunks, gzipTrailLen)
	var trailer [gzipTrailLen]byte
	binary.LittleEndian.PutUint32(trailer[0:4], crc32.ChecksumIEEE(data))
	binary.LittleEndian.PutUint32(trailer[4:8], uint32(len(data)))
	return append(out, trailer[:]...), nil
}

// ZlibCompressParallel is ZlibCompress over the chunked format; see
// GzipCompressParallel for the determinism contract.
func ZlibCompressParallel(data []byte, level, workers int) ([]byte, error) {
	if len(data) < ParallelThreshold {
		return ZlibCompress(data, level)
	}
	if err := validateLevel(level); err != nil {
		return nil, err
	}
	chunks, err := deflateChunks(data, level, workers)
	if err != nil {
		return nil, err
	}
	cmf := byte(zlibCMFDeflate32K)
	var flevel byte
	switch {
	case level >= 7:
		flevel = 3
	case level >= 5:
		flevel = 2
	case level >= 2:
		flevel = 1
	}
	flg := flevel << 6
	rem := (uint16(cmf)<<8 | uint16(flg)) % 31
	if rem != 0 {
		flg += byte(31 - rem)
	}
	out := stitch([]byte{cmf, flg}, chunks, zlibTrailLen)
	var trailer [zlibTrailLen]byte
	binary.BigEndian.PutUint32(trailer[:], adler32.Checksum(data))
	return append(out, trailer[:]...), nil
}
