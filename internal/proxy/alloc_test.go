//go:build !race

package proxy

// Allocation gates for the pooled dataplane. These assert the O(1)
// buffers-per-block property the buffer pool exists to provide; they are
// excluded under the race detector, which instruments allocations and
// would make the counts meaningless.

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/codec"
	"repro/internal/wire"
	"repro/internal/workload"
)

// TestReadBlockPooledAllocs: once the pool is warm, reading a verified
// 128 KiB block the way the client's receive loop does (wire.ReadHeader,
// then wire.ReadPayload into a codec.GetBuf slice) must not allocate a
// fresh payload. The budget of 2 covers the header array and the
// slice-header box sync.Pool needs on Put; the payload buffer itself (the
// 128 KiB that used to be a per-block make) must come from the pool.
func TestReadBlockPooledAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte{0xA5}, 128*1024)
	var frame bytes.Buffer
	if err := wire.WriteBlock(&frame, false, uint32(len(payload)), payload); err != nil {
		t.Fatal(err)
	}
	framed := frame.Bytes()
	r := bytes.NewReader(framed)
	readBlock := func() {
		h, err := wire.ReadHeader(r)
		if err != nil || h.End() {
			t.Fatalf("ReadHeader = %+v, %v", h, err)
		}
		p, err := wire.ReadPayload(r, h, codec.GetBuf(int(h.PayLen)))
		if err != nil {
			t.Fatalf("ReadPayload: %v", err)
		}
		codec.PutBuf(p)
	}

	// Warm the pool's size class.
	readBlock()
	allocs := testing.AllocsPerRun(200, func() {
		r.Reset(framed)
		readBlock()
	})
	if allocs > 2 {
		t.Errorf("block read allocates %.1f objects per block, want <= 2 (payload not pooled?)", allocs)
	}
}

// TestGetBufRecycles pins the pool contract the dataplane relies on:
// capacity classes round up, and a returned buffer is handed out again.
func TestGetBufRecycles(t *testing.T) {
	b := codec.GetBuf(100_000)
	if cap(b) < 100_000 {
		t.Fatalf("GetBuf(100000) cap = %d", cap(b))
	}
	b = append(b, 1, 2, 3)
	codec.PutBuf(b)
	c := codec.GetBuf(100_000)
	if len(c) != 0 {
		t.Fatalf("recycled buffer has len %d, want 0", len(c))
	}
	if cap(c) < 100_000 {
		t.Fatalf("recycled buffer cap = %d", cap(c))
	}
}

// TestLargeFetchBytesPerOp: a warm loopback fetch of a 12 MiB file —
// well past maxPrealloc, so the output buffer must grow — allocates at
// most 3x the raw size per fetch, server side included. Doubling the
// buffer costs about 2.25x here (1+2+4+8+12 MiB); growing it by one
// 128 KiB block at a time would copy the prefix once per block, tens of
// times the file size.
func TestLargeFetchBytesPerOp(t *testing.T) {
	const size = 12 << 20
	content := workload.Generate(workload.ClassXML, size, 8)
	srv := NewServer(nil)
	srv.Register("big", content)
	if err := srv.Precompress("big", codec.Gzip); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewClient(addr)
	fetch := func() {
		got, _, err := cli.Fetch("big", codec.Gzip, ModePrecompressed)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != size {
			t.Fatalf("fetched %d bytes, want %d", len(got), size)
		}
	}
	fetch() // warm the buffer pools
	const runs = 3
	var m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m1)
	for i := 0; i < runs; i++ {
		fetch()
	}
	runtime.ReadMemStats(&m2)
	if perOp := (m2.TotalAlloc - m1.TotalAlloc) / runs; perOp > 3*size {
		t.Errorf("large fetch allocates %d B/op, want <= %d (3x raw size): output growth not amortised?", perOp, 3*size)
	}
}
