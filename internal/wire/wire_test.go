package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
)

// TestReadRejects: every malformed frame errors with ErrFrame, and no
// length is trusted before it is bounded.
func TestReadRejects(t *testing.T) {
	var end bytes.Buffer
	_ = WriteEnd(&end, 7)
	badEnd := end.Bytes()
	badEnd[2] ^= 0x40
	for name, frame := range map[string]string{
		"truncated header":  "\x00\x00\x00",
		"end frame CRC":     string(badEnd),
		"unknown flag":      "\x07\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00",
		"raw length cap":    "\x01\x00\x20\x00\x01\x00\x00\x00\x04\x00\x00\x00\x00",
		"payload cap":       "\x01\x00\x00\x00\x04\x00\x20\x00\x01\x00\x00\x00\x00",
		"raw len mismatch":  "\x00\x00\x00\x00\x00\x00\x00\x00\x04\x00\x00\x00\x00",
		"raw len mismatch2": "\x00\x00\x00\x00\x05\x00\x00\x00\x04\x00\x00\x00\x00",
	} {
		if _, err := ReadHeader(bytes.NewReader([]byte(frame))); !errors.Is(err, ErrFrame) {
			t.Errorf("%s: err = %v, want ErrFrame", name, err)
		}
	}

	var blk bytes.Buffer
	_ = WriteBlock(&blk, true, 100, []byte("payload"))
	for name, frame := range map[string][]byte{
		"truncated payload": blk.Bytes()[:blk.Len()-1],
		"payload CRC":       append(append([]byte(nil), blk.Bytes()[:blk.Len()-1]...), 'X'),
	} {
		r := bytes.NewReader(frame)
		h, err := ReadHeader(r)
		if err != nil {
			t.Fatalf("%s: header: %v", name, err)
		}
		if _, err := ReadPayload(r, h, make([]byte, h.PayLen)); !errors.Is(err, ErrFrame) {
			t.Errorf("%s: err = %v, want ErrFrame", name, err)
		}
	}
}

type failWriter struct{ after int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.after <= 0 {
		return 0, io.ErrClosedPipe
	}
	w.after--
	return len(p), nil
}

// TestWriteErrors: a failing writer's error surfaces from both writes of
// a block and from the end frame.
func TestWriteErrors(t *testing.T) {
	for after := 0; after < 2; after++ {
		if err := WriteBlock(&failWriter{after: after}, false, 3, []byte("abc")); !errors.Is(err, io.ErrClosedPipe) {
			t.Errorf("WriteBlock failing after %d writes: err = %v", after, err)
		}
	}
	if err := WriteBlock(&failWriter{after: 1}, false, 0, nil); err != nil {
		t.Errorf("empty block wrote a payload: %v", err)
	}
	if err := WriteEnd(&failWriter{}, 0); !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("WriteEnd: err = %v", err)
	}
}

// TestSeal: Sealed accepts exactly what Seal produced, and nothing too
// short to carry a CRC.
func TestSeal(t *testing.T) {
	frame := []byte("status\x00\x00\x00\x00")
	Seal(frame)
	if !Sealed(frame) {
		t.Fatal("sealed frame rejected")
	}
	frame[0] ^= 1
	if Sealed(frame) {
		t.Fatal("corrupted frame accepted")
	}
	if Sealed([]byte{1, 2, 3}) {
		t.Fatal("frame shorter than a CRC accepted")
	}
	// The empty body's CRC is zero, so four zero bytes are a sealed frame.
	if !Sealed(make([]byte, CRCLen)) {
		t.Fatal("sealed empty body rejected")
	}
}

func TestLengthPolicy(t *testing.T) {
	if err := CheckLens(10, 20, 10, 20); err != nil {
		t.Errorf("lengths at the caps rejected: %v", err)
	}
	if CheckLens(11, 0, 10, 20) == nil || CheckLens(0, 21, 10, 20) == nil {
		t.Error("lengths over the caps accepted")
	}
	if !FitsInt(math.MaxInt32) || FitsInt(math.MaxUint64) {
		t.Error("FitsInt misjudges the int range")
	}
}
