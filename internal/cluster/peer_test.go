package cluster

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"testing"

	"repro/internal/codec"
	"repro/internal/proxy"
	"repro/internal/selective"
	"repro/internal/wire"
)

// TestReadPeerBlocksBudget: a stream whose blocks claim more raw bytes in
// total than the budget is refused at the block that crosses it, before
// that block's payload is read.
func TestReadPeerBlocksBudget(t *testing.T) {
	block := bytes.Repeat([]byte{'x'}, 600)
	var stream bytes.Buffer
	for i := 0; i < 3; i++ {
		_ = wire.WriteBlock(&stream, false, uint32(len(block)), block)
	}
	_ = wire.WriteEnd(&stream, 3)

	if blocks, err := readPeerBlocks(bytes.NewReader(stream.Bytes()), 1800); err != nil || len(blocks) != 3 {
		t.Fatalf("stream at its budget: %d blocks, %v", len(blocks), err)
	}
	r := bytes.NewReader(stream.Bytes())
	if _, err := readPeerBlocks(r, 1000); !errors.Is(err, ErrPeerProtocol) {
		t.Fatalf("over-budget stream: err = %v, want ErrPeerProtocol", err)
	}
	// One whole block and the second block's header were consumed; the
	// second payload was not.
	if read := stream.Len() - r.Len(); read != 2*wire.HeaderLen+len(block) {
		t.Fatalf("read %d bytes of an over-budget stream, want %d", read, 2*wire.HeaderLen+len(block))
	}
}

// TestReadPeerBlocksPayloadBound: a compressed block whose payload is
// larger than any codec makes from its raw length — here RawLen 0, which
// the raw-byte budget alone would let through for free — is refused before
// its payload is read, and a block at the bound is accepted.
func TestReadPeerBlocksPayloadBound(t *testing.T) {
	for _, tc := range []struct {
		rawLen uint32
		payLen int
		ok     bool
	}{
		{0, int(maxCompressedLen(0)), true},
		{0, int(maxCompressedLen(0)) + 1, false},
		{0, 1 << 20, false},
		{600, int(maxCompressedLen(600)), true},
		{600, int(maxCompressedLen(600)) + 1, false},
	} {
		var stream bytes.Buffer
		_ = wire.WriteBlock(&stream, true, tc.rawLen, make([]byte, tc.payLen))
		_ = wire.WriteEnd(&stream, 1)
		r := bytes.NewReader(stream.Bytes())
		_, err := readPeerBlocks(r, 1800)
		if tc.ok {
			if err != nil {
				t.Errorf("rawLen %d, payLen %d: %v", tc.rawLen, tc.payLen, err)
			}
			continue
		}
		if !errors.Is(err, ErrPeerProtocol) {
			t.Errorf("rawLen %d, payLen %d: err = %v, want ErrPeerProtocol", tc.rawLen, tc.payLen, err)
		}
		if read := stream.Len() - r.Len(); read != wire.HeaderLen {
			t.Errorf("rawLen %d, payLen %d: read %d bytes, want only the %d-byte header", tc.rawLen, tc.payLen, read, wire.HeaderLen)
		}
	}
}

// TestPeerBlocksCodecsWithinBound: every codec's output for incompressible
// and tiny blocks, compressed regardless of gain, passes readPeerBlocks
// with the file's size as budget — the payload bound refuses no honest
// stream.
func TestPeerBlocksCodecsWithinBound(t *testing.T) {
	random := make([]byte, selective.BlockSize+1000)
	rand.New(rand.NewSource(1)).Read(random)
	for _, s := range codec.Schemes() {
		c := codec.MustNew(s, 0)
		for _, data := range [][]byte{random, random[:1], []byte("ab")} {
			enc, err := selective.Encode(data, c, selective.AlwaysCompress{})
			if err != nil {
				t.Fatal(err)
			}
			var stream bytes.Buffer
			if err := writePeerBlocks(&stream, enc.Blocks); err != nil {
				t.Fatal(err)
			}
			blocks, err := readPeerBlocks(&stream, len(data))
			if err != nil || len(blocks) != len(enc.Blocks) {
				t.Fatalf("%v, %d bytes: %d blocks, %v", s, len(data), len(blocks), err)
			}
		}
	}
}

// hostileBlock is a frame a hostile peer repeats: raw blocks larger in
// total than any registered file, or compressed blocks that claim no raw
// bytes at all but carry large payloads.
type hostileBlock struct {
	name       string
	compressed bool
	rawLen     uint32
	payLen     int
}

var hostileBlocks = []hostileBlock{
	{"raw-over-budget", false, 64 << 10, 64 << 10},
	{"compressed-rawlen-0", true, 0, 1 << 20},
}

// hostileOwner answers every PXY-P exchange with an OK status and then
// hb's frame, maxPeerBlocks times, until the reader hangs up.
func hostileOwner(t *testing.T, hb hostileBlock) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, err := readPeerRequest(conn); err != nil {
					return
				}
				if writePeerStatus(conn, peerStatusOK) != nil {
					return
				}
				block := make([]byte, hb.payLen)
				for i := 0; i < maxPeerBlocks; i++ {
					if wire.WriteBlock(conn, hb.compressed, hb.rawLen, block) != nil {
						return
					}
				}
				_ = wire.WriteEnd(conn, maxPeerBlocks)
			}()
		}
	}()
	return ln.Addr().String()
}

// TestHostileOwnerOverBudgetDegradesToLocal: a ring owner that streams
// more raw bytes than the file has, or compressed payloads no codec makes
// from their raw length, is refused, and the client's fetch still succeeds
// by compressing locally, with one peer-fetch error.
func TestHostileOwnerOverBudgetDegradesToLocal(t *testing.T) {
	for _, hb := range hostileBlocks {
		t.Run(hb.name, func(t *testing.T) {
			members := []string{"na"}
			ringView := []string{"na", "nevil"}
			tc := startCluster(t, members, ringView, 0, 0, nil)
			tc.mu.Lock()
			tc.addrs["nevil"] = hostileOwner(t, hb)
			tc.mu.Unlock()
			key := keyOwnedBy(t, tc, tc.nodes["na"].Ring(), "nevil", members)

			if _, err := tc.nodes["na"].PeerFetch(key); !errors.Is(err, ErrPeerProtocol) {
				t.Fatalf("PeerFetch from a hostile owner: err = %v, want ErrPeerProtocol", err)
			}
			srv := tc.servers["na"]
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			content, _, err := proxy.NewClient(addr).Fetch(key.Name, codec.Gzip, proxy.ModeOnDemand)
			if err != nil {
				t.Fatalf("client fetch behind a hostile owner failed: %v", err)
			}
			if size, _ := srv.FileSize(key.Name); len(content) != size {
				t.Fatalf("client got %d bytes, file has %d", len(content), size)
			}
			st := srv.Stats()
			if st.PeerFetchErrors != 1 || st.Compressions != 1 || st.Errors != 0 {
				t.Fatalf("PeerFetchErrors %d, Compressions %d, Errors %d; want 1, 1, 0",
					st.PeerFetchErrors, st.Compressions, st.Errors)
			}
		})
	}
}

// TestOverBudgetPutRefused: an unauthenticated put whose blocks claim more
// raw bytes than the file has, or carry a compressed payload no codec
// makes from its raw length, gets no status and admits nothing.
func TestOverBudgetPutRefused(t *testing.T) {
	members := []string{"na", "nb"}
	tc := startCluster(t, members, members, 0, 0, nil)
	key := keyOwnedBy(t, tc, tc.nodes["na"].Ring(), "na", members)
	size, _ := tc.servers["na"].FileSize(key.Name)

	for _, b := range []selective.Block{
		{RawLen: size + 1, Payload: make([]byte, size+1)},
		{Compressed: true, RawLen: 0, Payload: make([]byte, 1<<20)},
	} {
		if st, err := putBlocks(tc, "na", key, b); err == nil {
			t.Fatalf("put of a %d-byte block for %d raw bytes answered with status %d", len(b.Payload), b.RawLen, st)
		}
		if _, ok := tc.servers["na"].CachedArtifact(key); ok {
			t.Fatalf("put of a %d-byte block for %d raw bytes admitted into the cache", len(b.Payload), b.RawLen)
		}
	}
}

// TestPutUnregisteredRefused: a node takes no replica of a file it has not
// registered, since it has no size to bound the stream by; the same put
// for a registered file is taken.
func TestPutUnregisteredRefused(t *testing.T) {
	tc := startCluster(t, []string{"na"}, []string{"na"}, 0, 0, nil)
	b := selective.Block{RawLen: 3, Payload: []byte("abc")}
	tc.servers["na"].Register("registered.txt", []byte("abc"))
	key := proxy.ArtifactKey{Name: "registered.txt", Gen: 1, Scheme: codec.Gzip, FP: "always"}
	if st, err := putBlocks(tc, "na", key, b); err != nil || st != peerStatusOK {
		t.Fatalf("put for a registered file: status %d, %v", st, err)
	}
	key.Name = "unregistered.txt"
	if st, err := putBlocks(tc, "na", key, b); err == nil {
		t.Fatalf("put for an unregistered file answered with status %d", st)
	}
	if _, ok := tc.servers["na"].CachedArtifact(key); ok {
		t.Fatal("put for an unregistered file admitted into the cache")
	}
}

// putBlocks pushes blocks to node as a PXY-P put and returns the status
// it answers with. A refusing node hangs up without one, possibly while
// the blocks are still being written.
func putBlocks(tc *testCluster, node string, key proxy.ArtifactKey, blocks ...selective.Block) (byte, error) {
	conn, err := tc.dial(node)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	if err := writePeerRequest(conn, peerRequest{Op: peerOpPut, Key: key}); err != nil {
		return 0, err
	}
	_ = writePeerBlocks(conn, blocks)
	return readPeerStatus(conn)
}
