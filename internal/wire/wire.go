// Package wire is the one block frame of both proxy protocols. The
// paper's proxy (Sections 3-4) sends a file as (compressed?, raw length,
// payload) blocks; PXY3 (internal/proxy) and PXY-P (internal/cluster) both
// frame them as
//
//	block: flag u8 | rawLen u32 | payLen u32 | crc32(payload) | payload
//	end:   0xFF    | value u32  | 0 u32      | crc32(end[:9])
//
// big-endian, CRC-32/IEEE. The end value is the content CRC in PXY3 and
// the block count in PXY-P; its own CRC makes a flipped bit there link
// damage, not a different file. The package also owns the length policy
// wire-derived lengths meet before they size an allocation, and the CRC
// seal on the protocols' request and header frames.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	FlagRaw        = 0x00
	FlagCompressed = 0x01
	FlagEnd        = 0xFF

	// HeaderLen is the size of a block frame header and of an end frame.
	HeaderLen = 1 + 4 + 4 + 4
	// MaxPayload bounds a block's payload (a compressed 0.128 MB block is
	// only marginally larger than raw), and MaxRaw its claimed raw length,
	// which sizes the decompressor's output buffer.
	MaxPayload = 1 << 21
	MaxRaw     = 1 << 21
	// CRCLen is the size of the CRC-32 a sealed frame ends with.
	CRCLen = 4
)

// ErrFrame is wrapped by every error returned for a malformed frame.
var ErrFrame = errors.New("wire: malformed frame")

// Header is one decoded frame header. Value is set on end frames only.
type Header struct {
	Flag                  byte
	RawLen, PayLen, Value uint32
	crc                   uint32
}

// End reports whether h is the end frame.
func (h Header) End() bool { return h.Flag == FlagEnd }

// Compressed reports whether h frames a compressed block.
func (h Header) Compressed() bool { return h.Flag == FlagCompressed }

// WriteBlock frames one block: its header, then the payload.
func WriteBlock(w io.Writer, compressed bool, rawLen uint32, payload []byte) error {
	var hdr [HeaderLen]byte
	if compressed {
		hdr[0] = FlagCompressed
	}
	binary.BigEndian.PutUint32(hdr[1:5], rawLen)
	binary.BigEndian.PutUint32(hdr[5:9], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[9:13], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// WriteEnd emits the end frame carrying value.
func WriteEnd(w io.Writer, value uint32) error {
	var hdr [HeaderLen]byte
	hdr[0] = FlagEnd
	binary.BigEndian.PutUint32(hdr[1:5], value)
	Seal(hdr[:])
	_, err := w.Write(hdr[:])
	return err
}

// ReadHeader reads one frame header. An end frame must pass its own CRC;
// a block frame needs a known flag, lengths within MaxRaw and MaxPayload,
// and, if raw, equal lengths — its payload IS its raw bytes, so the sum
// of accepted RawLens is an honest budget for an output buffer.
func ReadHeader(r io.Reader) (Header, error) {
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Header{}, fmt.Errorf("%w: truncated block: %v", ErrFrame, err)
	}
	h := Header{Flag: hdr[0]}
	switch h.Flag {
	case FlagEnd:
		if !Sealed(hdr[:]) {
			return Header{}, fmt.Errorf("%w: end frame CRC mismatch", ErrFrame)
		}
		h.Value = binary.BigEndian.Uint32(hdr[1:5])
		return h, nil
	case FlagRaw, FlagCompressed:
	default:
		return Header{}, fmt.Errorf("%w: flag %#x", ErrFrame, h.Flag)
	}
	h.RawLen = binary.BigEndian.Uint32(hdr[1:5])
	h.PayLen = binary.BigEndian.Uint32(hdr[5:9])
	h.crc = binary.BigEndian.Uint32(hdr[9:13])
	if err := CheckLens(h.RawLen, h.PayLen, MaxRaw, MaxPayload); err != nil {
		return Header{}, fmt.Errorf("%w: %v", ErrFrame, err)
	}
	if h.Flag == FlagRaw && h.PayLen != h.RawLen {
		return Header{}, fmt.Errorf("%w: raw block claims %d raw bytes but carries %d", ErrFrame, h.RawLen, h.PayLen)
	}
	return h, nil
}

// ReadPayload reads block h's payload into buf[:h.PayLen] (buf needs that
// capacity) and checks its CRC. The slice comes back on error too, so a
// pooled buf can be recycled.
func ReadPayload(r io.Reader, h Header, buf []byte) ([]byte, error) {
	p := buf[:h.PayLen]
	if _, err := io.ReadFull(r, p); err != nil {
		return p, fmt.Errorf("%w: truncated payload: %v", ErrFrame, err)
	}
	if crc32.ChecksumIEEE(p) != h.crc {
		return p, fmt.Errorf("%w: block payload CRC mismatch", ErrFrame)
	}
	return p, nil
}

// Seal writes the CRC-32 of frame[:len(frame)-CRCLen] into frame's last
// CRCLen bytes.
func Seal(frame []byte) {
	n := len(frame) - CRCLen
	binary.BigEndian.PutUint32(frame[n:], crc32.ChecksumIEEE(frame[:n]))
}

// Sealed reports whether frame ends with the CRC-32 of the bytes before
// it, as Seal leaves it.
func Sealed(frame []byte) bool {
	n := len(frame) - CRCLen
	return n >= 0 && crc32.ChecksumIEEE(frame[:n]) == binary.BigEndian.Uint32(frame[n:])
}

// CheckLens bounds a frame's untrusted claimed raw (decompressed) and
// payload lengths by explicit caps, in uint32 so no conversion can wrap
// on any platform.
func CheckLens(rawLen, payLen, maxRaw, maxPay uint32) error {
	if rawLen > maxRaw {
		return fmt.Errorf("claimed raw length %d exceeds cap %d", rawLen, maxRaw)
	}
	if payLen > maxPay {
		return fmt.Errorf("claimed payload length %d exceeds cap %d", payLen, maxPay)
	}
	return nil
}

// FitsInt reports whether an untrusted 64-bit wire value converts to int
// without overflow on this platform.
func FitsInt(v uint64) bool { return v <= uint64(^uint(0)>>1) }
