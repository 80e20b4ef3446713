package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/codec"
	"repro/internal/proxy"
	"repro/internal/wire"
)

// PXY-P is the inter-proxy peer protocol, framed like PXY3: a CRC on the
// request frame, a CRC on the response status, and the block frames of
// internal/wire, with every wire-derived length bounded before allocation.
//
//	request:  "PXYP" | op u8 | keyLen-prefixed fields | crc32(after magic)
//	          key = nameLen u16 | name | gen u64 | scheme u8 | fpLen u16 | fp
//	response: status u8 | crc32(status)
//	blocks:   (fetch-ok responses and put requests) wire block frames,
//	          then a wire end frame whose value is the block count
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
	maxPeerBlocks = 4096

	// peerReqFixedLen is magic + op + name length.
	peerReqFixedLen = 4 + 1 + 2
	// peerStatusLen is status + CRC.
	peerStatusLen = 1 + wire.CRCLen
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
	buf := make([]byte, 0, peerReqFixedLen+len(name)+8+1+2+len(fp)+wire.CRCLen)
	buf = append(buf, peerMagic...)
	buf = append(buf, req.Op)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(name)))
	buf = append(buf, name...)
	buf = binary.BigEndian.AppendUint64(buf, req.Key.Gen)
	buf = append(buf, byte(req.Key.Scheme))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(fp)))
	buf = append(buf, fp...)
	buf = append(buf, 0, 0, 0, 0)
	wire.Seal(buf[len(peerMagic):])
	_, err := w.Write(buf)
	return err
}

func readPeerRequest(r io.Reader) (peerRequest, error) {
	var hdr [peerReqFixedLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return peerRequest{}, err
	}
	if string(hdr[:len(peerMagic)]) != peerMagic {
		return peerRequest{}, fmt.Errorf("%w: bad magic", ErrPeerProtocol)
	}
	req := peerRequest{Op: hdr[len(peerMagic)]}
	nameLen := int(binary.BigEndian.Uint16(hdr[len(peerMagic)+1:]))
	if nameLen > maxPeerName {
		return peerRequest{}, fmt.Errorf("%w: name length %d", ErrPeerProtocol, nameLen)
	}
	// One buffer for the whole frame, with room for the largest fp.
	midEnd := peerReqFixedLen + nameLen + 8 + 1 + 2
	frame := make([]byte, midEnd, midEnd+maxPeerFP+wire.CRCLen)
	copy(frame, hdr[:])
	if _, err := io.ReadFull(r, frame[peerReqFixedLen:]); err != nil {
		return peerRequest{}, fmt.Errorf("%w: truncated key: %v", ErrPeerProtocol, err)
	}
	mid := frame[peerReqFixedLen:]
	fpLen := int(binary.BigEndian.Uint16(mid[nameLen+9:]))
	if fpLen > maxPeerFP {
		return peerRequest{}, fmt.Errorf("%w: fp length %d", ErrPeerProtocol, fpLen)
	}
	frame = frame[:midEnd+fpLen+wire.CRCLen]
	if _, err := io.ReadFull(r, frame[midEnd:]); err != nil {
		return peerRequest{}, fmt.Errorf("%w: truncated key tail: %v", ErrPeerProtocol, err)
	}
	if !wire.Sealed(frame[len(peerMagic):]) {
		return peerRequest{}, fmt.Errorf("%w: request CRC mismatch", ErrPeerProtocol)
	}
	req.Key.Name = string(mid[:nameLen])
	req.Key.Gen = binary.BigEndian.Uint64(mid[nameLen:])
	req.Key.Scheme = codec.Scheme(mid[nameLen+8])
	req.Key.FP = string(frame[midEnd : midEnd+fpLen])
	return req, nil
}

func writePeerStatus(w io.Writer, status byte) error {
	var buf [peerStatusLen]byte
	buf[0] = status
	wire.Seal(buf[:])
	_, err := w.Write(buf[:])
	return err
}

func readPeerStatus(r io.Reader) (byte, error) {
	var buf [peerStatusLen]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, fmt.Errorf("%w: truncated status: %v", ErrPeerProtocol, err)
	}
	if !wire.Sealed(buf[:]) {
		return 0, fmt.Errorf("%w: status CRC mismatch", ErrPeerProtocol)
	}
	return buf[0], nil
}
