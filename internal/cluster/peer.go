package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/codec"
	"repro/internal/proxy"
	"repro/internal/selective"
)

// PXY-P is the inter-proxy peer protocol, framed like PXY3: a CRC on the
// request frame, a CRC on the response status, and a per-block payload
// CRC, with every wire-derived length bounded before allocation.
//
//	request:  "PXYP" | op u8 | keyLen-prefixed fields | crc32(after magic)
//	          key = nameLen u16 | name | gen u64 | scheme u8 | fpLen u16 | fp
//	response: status u8 | crc32(status)
//	blocks:   (fetch-ok responses and put requests)
//	          flag u8 | rawLen u32 | payLen u32 | crc32(payload) | payload
//	          ... terminated by flag 0xFF | count u32 | 0 u32 | crc32(hdr[:9])
//
// Ops: fetch asks the key's owner for the finished artifact; put pushes a
// replica of a hot artifact to a successor; inval raises a file's
// generation floor ring-wide after a registration bump.
const (
	peerMagic = "PXYP"

	peerOpFetch = 0x01
	peerOpPut   = 0x02
	peerOpInval = 0x03

	peerStatusOK       = 0x00
	peerStatusNotOwner = 0x01
	peerStatusStale    = 0x02
	peerStatusNotFound = 0x03
	peerStatusError    = 0x04

	maxPeerName   = 4096
	maxPeerFP     = 256
	maxPeerBlock  = 1 << 21
	maxPeerBlocks = 4096

	peerReqFixedLen   = 4 + 1
	peerBlockHdrLen   = 1 + 4 + 4 + 4
	peerBlockFlagRaw  = 0x00
	peerBlockFlagComp = 0x01
	peerBlockFlagEnd  = 0xFF
)

// ErrPeerProtocol is returned for malformed PXY-P frames.
var ErrPeerProtocol = errors.New("cluster: peer protocol error")

// errNotOwner surfaces a peerStatusNotOwner response: the dialed node no
// longer (or never did) own the key — the caller degrades to local
// compression.
var errNotOwner = errors.New("cluster: peer is not the key's owner")

// peerRequest is one decoded PXY-P request frame.
type peerRequest struct {
	Op  byte
	Key proxy.ArtifactKey
}

func writePeerRequest(w io.Writer, req peerRequest) error {
	name, fp := []byte(req.Key.Name), []byte(req.Key.FP)
	if len(name) > maxPeerName || len(fp) > maxPeerFP {
		return fmt.Errorf("%w: oversized key", ErrPeerProtocol)
	}
	buf := make([]byte, 0, peerReqFixedLen+2+len(name)+8+1+2+len(fp)+4)
	buf = append(buf, peerMagic...)
	buf = append(buf, req.Op)
	var u16 [2]byte
	var u64 [8]byte
	binary.BigEndian.PutUint16(u16[:], uint16(len(name)))
	buf = append(buf, u16[:]...)
	buf = append(buf, name...)
	binary.BigEndian.PutUint64(u64[:], req.Key.Gen)
	buf = append(buf, u64[:]...)
	buf = append(buf, byte(req.Key.Scheme))
	binary.BigEndian.PutUint16(u16[:], uint16(len(fp)))
	buf = append(buf, u16[:]...)
	buf = append(buf, fp...)
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf[len(peerMagic):]))
	buf = append(buf, crc[:]...)
	_, err := w.Write(buf)
	return err
}

func readPeerRequest(r io.Reader) (peerRequest, error) {
	hdr := make([]byte, peerReqFixedLen+2)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return peerRequest{}, err
	}
	if string(hdr[:len(peerMagic)]) != peerMagic {
		return peerRequest{}, fmt.Errorf("%w: bad magic", ErrPeerProtocol)
	}
	req := peerRequest{Op: hdr[len(peerMagic)]}
	nameLen := int(binary.BigEndian.Uint16(hdr[peerReqFixedLen:]))
	if nameLen > maxPeerName {
		return peerRequest{}, fmt.Errorf("%w: name length %d", ErrPeerProtocol, nameLen)
	}
	mid := make([]byte, nameLen+8+1+2)
	if _, err := io.ReadFull(r, mid); err != nil {
		return peerRequest{}, fmt.Errorf("%w: truncated key: %v", ErrPeerProtocol, err)
	}
	req.Key.Name = string(mid[:nameLen])
	req.Key.Gen = binary.BigEndian.Uint64(mid[nameLen:])
	req.Key.Scheme = codec.Scheme(mid[nameLen+8])
	fpLen := int(binary.BigEndian.Uint16(mid[nameLen+9:]))
	if fpLen > maxPeerFP {
		return peerRequest{}, fmt.Errorf("%w: fp length %d", ErrPeerProtocol, fpLen)
	}
	tail := make([]byte, fpLen+4)
	if _, err := io.ReadFull(r, tail); err != nil {
		return peerRequest{}, fmt.Errorf("%w: truncated key tail: %v", ErrPeerProtocol, err)
	}
	req.Key.FP = string(tail[:fpLen])
	sum := crc32.ChecksumIEEE(hdr[len(peerMagic):])
	sum = crc32.Update(sum, crc32.IEEETable, mid)
	sum = crc32.Update(sum, crc32.IEEETable, tail[:fpLen])
	if sum != binary.BigEndian.Uint32(tail[fpLen:]) {
		return peerRequest{}, fmt.Errorf("%w: request CRC mismatch", ErrPeerProtocol)
	}
	return req, nil
}

func writePeerStatus(w io.Writer, status byte) error {
	var buf [5]byte
	buf[0] = status
	binary.BigEndian.PutUint32(buf[1:], crc32.ChecksumIEEE(buf[:1]))
	_, err := w.Write(buf[:])
	return err
}

func readPeerStatus(r io.Reader) (byte, error) {
	var buf [5]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, fmt.Errorf("%w: truncated status: %v", ErrPeerProtocol, err)
	}
	if crc32.ChecksumIEEE(buf[:1]) != binary.BigEndian.Uint32(buf[1:]) {
		return 0, fmt.Errorf("%w: status CRC mismatch", ErrPeerProtocol)
	}
	return buf[0], nil
}

// writePeerBlocks frames an artifact's block stream, terminated by an end
// frame carrying the block count.
func writePeerBlocks(w io.Writer, blocks []selective.Block) error {
	var hdr [peerBlockHdrLen]byte
	for _, b := range blocks {
		hdr[0] = peerBlockFlagRaw
		if b.Compressed {
			hdr[0] = peerBlockFlagComp
		}
		binary.BigEndian.PutUint32(hdr[1:5], uint32(b.RawLen))
		binary.BigEndian.PutUint32(hdr[5:9], uint32(len(b.Payload)))
		binary.BigEndian.PutUint32(hdr[9:13], crc32.ChecksumIEEE(b.Payload))
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		if len(b.Payload) > 0 {
			if _, err := w.Write(b.Payload); err != nil {
				return err
			}
		}
	}
	hdr[0] = peerBlockFlagEnd
	binary.BigEndian.PutUint32(hdr[1:5], uint32(len(blocks)))
	binary.BigEndian.PutUint32(hdr[5:9], 0)
	binary.BigEndian.PutUint32(hdr[9:13], crc32.ChecksumIEEE(hdr[:9]))
	_, err := w.Write(hdr[:])
	return err
}

// readPeerBlocks decodes a block stream, bounding every length before
// allocation and verifying every payload CRC and the trailing count.
func readPeerBlocks(r io.Reader) ([]selective.Block, error) {
	var blocks []selective.Block
	var hdr [peerBlockHdrLen]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated block: %v", ErrPeerProtocol, err)
		}
		if hdr[0] == peerBlockFlagEnd {
			if crc32.ChecksumIEEE(hdr[:9]) != binary.BigEndian.Uint32(hdr[9:13]) {
				return nil, fmt.Errorf("%w: end frame CRC mismatch", ErrPeerProtocol)
			}
			if n := binary.BigEndian.Uint32(hdr[1:5]); int(n) != len(blocks) {
				return nil, fmt.Errorf("%w: stream claims %d blocks, carried %d", ErrPeerProtocol, n, len(blocks))
			}
			return blocks, nil
		}
		if hdr[0] != peerBlockFlagRaw && hdr[0] != peerBlockFlagComp {
			return nil, fmt.Errorf("%w: block flag %#x", ErrPeerProtocol, hdr[0])
		}
		if len(blocks) >= maxPeerBlocks {
			return nil, fmt.Errorf("%w: more than %d blocks", ErrPeerProtocol, maxPeerBlocks)
		}
		rawLen := binary.BigEndian.Uint32(hdr[1:5])
		payLen := binary.BigEndian.Uint32(hdr[5:9])
		if err := selective.CheckWireLens(rawLen, payLen, maxPeerBlock, maxPeerBlock); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrPeerProtocol, err)
		}
		if hdr[0] == peerBlockFlagRaw && payLen != rawLen {
			return nil, fmt.Errorf("%w: raw block claims %d raw bytes but carries %d", ErrPeerProtocol, rawLen, payLen)
		}
		payload := make([]byte, payLen)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, fmt.Errorf("%w: truncated payload: %v", ErrPeerProtocol, err)
		}
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(hdr[9:13]) {
			return nil, fmt.Errorf("%w: block payload CRC mismatch", ErrPeerProtocol)
		}
		blocks = append(blocks, selective.Block{
			Compressed: hdr[0] == peerBlockFlagComp,
			RawLen:     int(rawLen),
			Payload:    payload,
		})
	}
}
