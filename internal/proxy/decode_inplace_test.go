package proxy

import (
	"bufio"
	"bytes"
	"hash/crc32"
	"net"
	"sync/atomic"
	"testing"

	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/wire"
	"repro/internal/workload"
)

// corruptBodyServer serves content as compressed blocks of blockSize raw
// bytes. On the first connection block bad's compressed body is cut in
// half: a frame-valid block (its frame CRC covers the damaged payload)
// that the decoder must reject. Later connections are honest and serve
// from the requested offset, which they record in resumedAt.
func corruptBodyServer(t *testing.T, content []byte, scheme codec.Scheme, blockSize, bad int, resumedAt *atomic.Int64) string {
	t.Helper()
	c, err := codec.New(scheme, 0)
	if err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	for off := 0; off < len(content); off += blockSize {
		p, err := c.Compress(content[off:min(off+blockSize, len(content))])
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, p)
	}
	var conns atomic.Int64
	return maliciousServer(t, func(conn net.Conn) {
		first := conns.Add(1) == 1
		req, err := readRequest(bufio.NewReader(conn))
		if err != nil {
			return
		}
		if !first {
			resumedAt.Store(int64(req.Offset))
		}
		start := int(req.Offset) / blockSize
		bw := bufio.NewWriter(conn)
		_ = writeGetHeader(bw, getHeader{Status: statusOK, RawSize: uint64(len(content)), Scheme: scheme, Offset: uint64(start * blockSize)})
		for i := start; i < len(payloads); i++ {
			p := payloads[i]
			if first && i == bad {
				p = p[:len(p)/2]
			}
			rawLen := min(blockSize, len(content)-i*blockSize)
			if err := wire.WriteBlock(bw, true, uint32(rawLen), p); err != nil {
				return
			}
		}
		_ = wire.WriteEnd(bw, crc32.ChecksumIEEE(content))
		_ = bw.Flush()
	})
}

// TestCorruptBlockBodyKeepsExactPrefix: a frame-valid block whose
// compressed body does not decode stops the attempt with exactly the
// blocks decoded before it — nothing of the bad block, nothing after it —
// and the resumed fetch asks for that prefix and finishes byte-exact.
// Covers every scheme the client decodes in place.
func TestCorruptBlockBodyKeepsExactPrefix(t *testing.T) {
	const blockSize, blocks, bad = 4_000, 6, 2
	content := workload.Generate(workload.ClassXML, blockSize*blocks-123, 5)
	prefix := content[:bad*blockSize]
	for _, scheme := range codec.Schemes() {
		t.Run(scheme.String(), func(t *testing.T) {
			var resumedAt atomic.Int64
			addr := corruptBodyServer(t, content, scheme, blockSize, bad, &resumedAt)

			cli := hardenedClient(addr)
			var stats FetchStats
			out, reset, err := cli.fetchOnce("f", scheme, ModePrecompressed, 1, nil, &stats, nil)
			if err == nil {
				t.Fatal("corrupt block body was accepted")
			}
			if reset {
				t.Error("a block decode failure must keep the resume prefix")
			}
			if !bytes.Equal(out, prefix) {
				t.Fatalf("attempt returned %d bytes, want exactly the %d bytes of the %d blocks before the bad one", len(out), len(prefix), bad)
			}

			addr = corruptBodyServer(t, content, scheme, blockSize, bad, &resumedAt)
			got, fs, err := retryingClient(addr).Fetch("f", scheme, ModePrecompressed)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, content) {
				t.Fatal("resumed fetch is not byte-exact")
			}
			if fs.Attempts != 2 || resumedAt.Load() != int64(len(prefix)) || fs.ResumedBytes != len(prefix) {
				t.Errorf("attempts=%d resumed at %d (%d bytes), want 2 attempts resuming at %d",
					fs.Attempts, resumedAt.Load(), fs.ResumedBytes, len(prefix))
			}
		})
	}
}

// TestVerifyPhaseCoversHash: the verify phase is stamped where the
// content hash starts, so its interval lies after reception and ends no
// later than the span does. Stamped after hashing, it would run past the
// span's end by about the hash's own duration (tens of microseconds for
// this file's 8 MiB) and be clipped away.
func TestVerifyPhaseCoversHash(t *testing.T) {
	content := bytes.Repeat([]byte("0123456789abcdef"), 8<<20/16)
	srv := NewServer(nil)
	srv.Register("f", content)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewClient(addr)
	cli.Tracer = obs.NewTracer(4)
	if _, _, err := cli.Fetch("f", codec.Gzip, ModeRaw); err != nil {
		t.Fatal(err)
	}
	spans := cli.Tracer.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("%d spans, want 1", len(spans))
	}
	span := spans[0]
	var recv, verify *obs.Phase
	for i := range span.Phases {
		switch span.Phases[i].Name {
		case "recv":
			recv = &span.Phases[i]
		case "verify":
			verify = &span.Phases[i]
		}
	}
	if recv == nil || verify == nil {
		t.Fatalf("phases %+v lack recv or verify", span.Phases)
	}
	if verify.Duration <= 0 {
		t.Fatalf("verify phase has duration %v", verify.Duration)
	}
	if recvEnd := recv.Start + recv.Duration; verify.Start < recvEnd {
		t.Errorf("verify starts at %v, before reception ends at %v", verify.Start, recvEnd)
	}
	if end, spanLen := verify.Start+verify.Duration, span.End.Sub(span.Start); end > spanLen {
		t.Errorf("verify ends at %v, after the span's end at %v", end, spanLen)
	}
}
