package main

import (
	"bytes"
	"fmt"
	"time"

	"repro"
)

// replayBytes caps the raw bytes one replay pass covers; replayMin is the
// least time a replayed measurement runs, repeating passes.
const (
	replayBytes = 2 << 20
	replayMin   = 150 * time.Millisecond
)

// replay runs the workload's content through the codec and selective
// layers alone: the 128 KB blocks the proxy compresses, then whole files
// through the selective encoder with the paper's decider. Every call gets
// a bench span; decoded output must equal the input.
func replay(o *outcome, files []file, bench *repro.Tracer) error {
	var blocks [][]byte
	var total int
	for _, f := range files {
		for off := 0; off < len(f.data); off += repro.SelectiveBlockSize {
			end := min(off+repro.SelectiveBlockSize, len(f.data))
			blocks = append(blocks, f.data[off:end])
			total += end - off
		}
	}
	// A deterministic stride through the blocks keeps a pass near
	// replayBytes while still sampling every file class.
	stride := max(1, (total+replayBytes-1)/replayBytes)
	var sample [][]byte
	for i := 0; i < len(blocks); i += stride {
		sample = append(sample, blocks[i])
	}

	for _, scheme := range []repro.Scheme{repro.Gzip, repro.Compress, repro.Bzip2} {
		c, err := repro.NewCodec(scheme, 0)
		if err != nil {
			return err
		}
		name := "codec." + scheme.String()
		comp := make([][]byte, len(sample))
		var raw, packed int
		compress := func() error {
			for i, b := range sample {
				sp := bench.Start("bench." + name + ".compress")
				out, err := c.Compress(b)
				sp.Fail(err)
				sp.Finish()
				if err != nil {
					return fmt.Errorf("%s compress: %w", name, err)
				}
				comp[i] = out
			}
			return nil
		}
		if scheme == repro.Gzip {
			rate, err := timed(sampleBytes(sample), compress)
			if err != nil {
				return err
			}
			o.metrics[name+".compress_mb_s"] = rate
		} else if err := compress(); err != nil {
			return err
		}
		for i, b := range sample {
			raw += len(b)
			packed += len(comp[i])
		}
		if scheme == repro.Gzip {
			o.metrics[name+".factor"] = float64(raw) / float64(packed)
		}
		rate, err := timed(raw, func() error {
			for i, b := range sample {
				sp := bench.Start("bench." + name + ".decompress")
				out, err := c.Decompress(comp[i], len(b))
				sp.Fail(err)
				sp.Finish()
				if err != nil {
					return fmt.Errorf("%s decompress: %w", name, err)
				}
				if !bytes.Equal(out, b) {
					o.fail("%s round trip changed a %d-byte block", name, len(b))
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		o.metrics[name+".decompress_mb_s"] = rate
	}

	gz, err := repro.NewCodec(repro.Gzip, 0)
	if err != nil {
		return err
	}
	var fileBytes, blocksTotal, blocksCompressed int
	for _, f := range files {
		fileBytes += len(f.data)
	}
	encoded := make([][]byte, len(files))
	rate, err := timed(fileBytes, func() error {
		blocksTotal, blocksCompressed = 0, 0
		for i, f := range files {
			sp := bench.Start("bench.selective.encode")
			enc, st, err := repro.SelectiveEncode(f.data, gz, repro.PaperDecider{})
			sp.Fail(err)
			sp.Finish()
			if err != nil {
				return fmt.Errorf("selective encode %s: %w", f.name, err)
			}
			encoded[i] = enc
			blocksTotal += st.BlocksTotal
			blocksCompressed += st.BlocksCompressed
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i, f := range files {
		if dec, err := repro.SelectiveDecode(encoded[i], len(f.data)); err != nil || !bytes.Equal(dec, f.data) {
			o.fail("selective round trip of %s: %v", f.name, err)
		}
	}
	o.metrics["selective.encode_mb_s"] = rate
	if blocksTotal > 0 {
		o.metrics["selective.compressed_block_ratio"] = float64(blocksCompressed) / float64(blocksTotal)
	}
	return nil
}

func sampleBytes(sample [][]byte) int {
	n := 0
	for _, b := range sample {
		n += len(b)
	}
	return n
}

// timed repeats pass until replayMin has elapsed and returns the rate in
// MB per second of pass time, each pass covering n bytes.
func timed(n int, pass func() error) (float64, error) {
	var elapsed time.Duration
	var done int
	for elapsed < replayMin {
		t0 := time.Now()
		if err := pass(); err != nil {
			return 0, err
		}
		elapsed += time.Since(t0)
		done += n
	}
	return float64(done) / 1e6 / elapsed.Seconds(), nil
}
