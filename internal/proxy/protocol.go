// Package proxy implements the paper's experimental dataplane as a real
// networked system: a proxy server that stores files and serves them raw,
// precompressed, compressed on demand, or selectively compressed
// block-by-block; and a handheld-side client that downloads over TCP and
// decompresses each block in a pipeline concurrent with reception — the
// user-level interleaving of Section 4.1, with the receive path and the
// decompression path in separate goroutines.
//
// The energy numbers of the reproduction come from the simulation stack
// (internal/pipeline); this package exists so the protocol, the framing and
// the interleaving are exercised for real over sockets, as in the paper's
// testbed.
package proxy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/codec"
	"repro/internal/wire"
)

// Protocol constants. PXY2 hardened the PXY1 framing for a lossy link:
// the request and the GET response header carry a CRC-32 so a corrupted
// frame is distinguishable from an honest answer, the request carries a
// resume offset (and the response echoes the offset actually granted),
// and every block frame carries a CRC-32 of its payload so a fetch can be
// resumed from the last verified block. PXY3 adds a 64-bit request ID to
// the request frame: the client mints one per fetch (shared by every
// retry attempt), the server tags its logs and trace spans with it, so
// one grep or /tracez query follows a request across both sides of the
// wire. The block frames a GET response carries after its header are
// internal/wire's, shared with the peer protocol.
const (
	protoMagic = "PXY3"

	opList = 0x01
	opGet  = 0x02
	// opGetEx is a GET whose tail carries the request's deadline class and
	// energy budget (the dynamic decider's per-request inputs). It is a
	// separate op rather than a widening of opGet so that clients with no
	// attributes to declare keep emitting byte-identical opGet frames.
	opGetEx = 0x03

	statusOK       = 0x00
	statusNotFound = 0x01
	statusBadReq   = 0x02
	// statusBusy is returned (and the connection closed) when the server
	// is at its concurrent-connection cap.
	statusBusy = 0x03

	// maxNameLen bounds file names on the wire.
	maxNameLen = 4096

	// reqFixedLen is magic + op + name length.
	reqFixedLen = 4 + 1 + 2
	// reqTailLen is scheme + mode + offset + request ID + CRC, after the
	// name.
	reqTailLen = 1 + 1 + 8 + 8 + 4
	// reqTailExLen is the opGetEx tail: the opGet tail plus a deadline
	// class byte and a millijoule energy budget, before the CRC.
	reqTailExLen = reqTailLen + 1 + 4
	// GetHeaderLen is the wire size of a GET response header frame:
	// status + raw size + scheme + offset + CRC. The soak harness
	// reconciles the client's WireBytes ledger against the server's
	// payload counters with it (block frames add wire.HeaderLen each).
	GetHeaderLen = 1 + 8 + 1 + 8 + 4
)

// Mode is the transfer mode requested by the client.
type Mode byte

// Transfer modes.
const (
	// ModeRaw transfers the file uncompressed.
	ModeRaw Mode = iota + 1
	// ModePrecompressed serves blocks compressed ahead of time on the
	// proxy (Section 3: "all downloaded files are compressed a priori").
	ModePrecompressed
	// ModeOnDemand compresses blocks while the transfer is in flight
	// (Section 5).
	ModeOnDemand
	// ModeSelective applies the block-by-block adaptive scheme of
	// Section 4.3 (on demand).
	ModeSelective
)

func (m Mode) String() string {
	switch m {
	case ModeRaw:
		return "raw"
	case ModePrecompressed:
		return "precompressed"
	case ModeOnDemand:
		return "on-demand"
	case ModeSelective:
		return "selective"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ErrProtocol is returned for malformed frames.
var ErrProtocol = errors.New("proxy: protocol error")

// ErrNotFound is returned when the server does not have the file.
var ErrNotFound = errors.New("proxy: file not found")

// ErrBusy is returned when the server sheds the connection at its
// concurrent-connection cap; the request is safe to retry.
var ErrBusy = errors.New("proxy: server busy")

// request is the client->server GET message. Offset asks the server to
// resume the transfer at that raw-byte position; the server rounds it down
// to a block boundary and echoes the granted offset in the response.
// ReqID is the client-minted correlation ID: every retry attempt of one
// fetch carries the same ID, and the server propagates it into its logs
// and trace spans.
type request struct {
	Op     byte
	Name   string
	Scheme codec.Scheme
	Mode   Mode
	Offset uint64
	ReqID  uint64
	// Class and BudgetMJ ride only on opGetEx frames: the handheld's
	// deadline class (decider.ClassFromByte vocabulary) and its remaining
	// energy budget in millijoules (0 = undeclared). On opGet they are
	// always zero.
	Class    uint8
	BudgetMJ uint32
}

// tailLen is the per-op request tail size after the name.
func (r request) tailLen() int {
	if r.Op == opGetEx {
		return reqTailExLen
	}
	return reqTailLen
}

func writeRequest(w io.Writer, req request) error {
	name := []byte(req.Name)
	if len(name) > maxNameLen {
		return fmt.Errorf("%w: name too long", ErrProtocol)
	}
	buf := make([]byte, 0, reqFixedLen+len(name)+req.tailLen())
	buf = append(buf, protoMagic...)
	buf = append(buf, req.Op)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(name)))
	buf = append(buf, name...)
	buf = append(buf, byte(req.Scheme), byte(req.Mode))
	buf = binary.BigEndian.AppendUint64(buf, req.Offset)
	buf = binary.BigEndian.AppendUint64(buf, req.ReqID)
	if req.Op == opGetEx {
		buf = append(buf, req.Class)
		buf = binary.BigEndian.AppendUint32(buf, req.BudgetMJ)
	}
	// The CRC covers everything after the magic, so a bit-flipped request
	// is rejected server-side instead of fetching the wrong file.
	buf = append(buf, 0, 0, 0, 0)
	wire.Seal(buf[len(protoMagic):])
	_, err := w.Write(buf)
	return err
}

func readRequest(r io.Reader) (request, error) {
	var hdr [reqFixedLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return request{}, err
	}
	if string(hdr[:len(protoMagic)]) != protoMagic {
		return request{}, fmt.Errorf("%w: bad magic", ErrProtocol)
	}
	req := request{Op: hdr[len(protoMagic)]}
	nameLen := int(binary.BigEndian.Uint16(hdr[len(protoMagic)+1:]))
	if nameLen > maxNameLen {
		return request{}, fmt.Errorf("%w: name length %d", ErrProtocol, nameLen)
	}
	frame := make([]byte, reqFixedLen+nameLen+req.tailLen())
	copy(frame, hdr[:])
	if _, err := io.ReadFull(r, frame[reqFixedLen:]); err != nil {
		return request{}, fmt.Errorf("%w: truncated request: %v", ErrProtocol, err)
	}
	if !wire.Sealed(frame[len(protoMagic):]) {
		return request{}, fmt.Errorf("%w: request CRC mismatch", ErrProtocol)
	}
	body := frame[reqFixedLen:]
	req.Name = string(body[:nameLen])
	req.Scheme = codec.Scheme(body[nameLen])
	req.Mode = Mode(body[nameLen+1])
	req.Offset = binary.BigEndian.Uint64(body[nameLen+2:])
	req.ReqID = binary.BigEndian.Uint64(body[nameLen+10:])
	if req.Op == opGetEx {
		req.Class = body[nameLen+18]
		req.BudgetMJ = binary.BigEndian.Uint32(body[nameLen+19:])
	}
	return req, nil
}

// getHeader is the server->client GET response header. Offset is the
// resume position granted by the server (always a block boundary, never
// past the requested offset); the CRC lets the client tell a corrupted
// header from an honest status byte.
type getHeader struct {
	Status  byte
	RawSize uint64
	Scheme  codec.Scheme
	Offset  uint64
}

func writeGetHeader(w io.Writer, h getHeader) error {
	var buf [GetHeaderLen]byte
	buf[0] = h.Status
	binary.BigEndian.PutUint64(buf[1:9], h.RawSize)
	buf[9] = byte(h.Scheme)
	binary.BigEndian.PutUint64(buf[10:18], h.Offset)
	wire.Seal(buf[:])
	_, err := w.Write(buf[:])
	return err
}

func readGetHeader(r io.Reader) (getHeader, error) {
	var buf [GetHeaderLen]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return getHeader{}, fmt.Errorf("%w: truncated header: %v", ErrProtocol, err)
	}
	if !wire.Sealed(buf[:]) {
		return getHeader{}, fmt.Errorf("%w: header CRC mismatch", ErrProtocol)
	}
	return getHeader{
		Status:  buf[0],
		RawSize: binary.BigEndian.Uint64(buf[1:9]),
		Scheme:  codec.Scheme(buf[9]),
		Offset:  binary.BigEndian.Uint64(buf[10:18]),
	}, nil
}
