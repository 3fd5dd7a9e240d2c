package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Disk-cache entries and job-log records share one
// self-validating frame (CSF1):
//
//	magic  uint32 (little endian, "CSF1")
//	length uint32 (payload bytes)
//	crc    uint32 (CRC32-C of the payload)
//	payload
//
// A reader can always tell a good frame from a truncated, bit-flipped or
// foreign file, which is what lets a cache turn corruption into a miss
// and lets log replay stop exactly at a torn tail.
const (
	frameMagic = 0x31465343 // "CSF1" little-endian

	// FrameHeaderLen is the bytes a frame adds in front of its payload.
	FrameHeaderLen = 12
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// EncodeFrame wraps payload in a CSF1 frame.
func EncodeFrame(payload []byte) []byte {
	out := make([]byte, FrameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], frameMagic)
	binary.LittleEndian.PutUint32(out[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[8:12], crc32.Checksum(payload, crcTable))
	copy(out[FrameHeaderLen:], payload)
	return out
}

// nextFrame validates and strips one frame from data, returning the
// payload and the remaining bytes. maxLen bounds the declared payload
// length so a corrupted header cannot demand an absurd allocation.
func nextFrame(data []byte, maxLen int) (payload, rest []byte, err error) {
	switch st, p, n := classify(data, maxLen); st {
	case frameValid:
		return p, data[n:], nil
	case frameShort:
		return nil, nil, errors.New("durable: frame truncated")
	default:
		return nil, nil, errors.New("durable: bad frame (magic, length or CRC)")
	}
}

// DecodeFrame validates data as exactly one frame.
func DecodeFrame(data []byte, maxLen int) ([]byte, error) {
	payload, rest, err := nextFrame(data, maxLen)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("durable: %d trailing bytes after frame", len(rest))
	}
	return payload, nil
}

// frameState classifies the bytes at the start of data.
type frameState int

const (
	frameValid frameState = iota
	// frameShort: a frame header, or its declared body, runs past the end
	// of data. An append still in flight looks exactly like this.
	frameShort
	// frameBad: complete but invalid (bad magic, length out of bounds, CRC
	// mismatch). Bytes that are all present never become valid.
	frameBad
)

var magicBytes = binary.LittleEndian.AppendUint32(nil, frameMagic)

// classify reports the state of the frame at the start of data and, for
// a valid one, its payload and total length.
func classify(data []byte, maxLen int) (frameState, []byte, int) {
	if len(data) < 4 {
		if bytes.HasPrefix(magicBytes, data) {
			return frameShort, nil, 0
		}
		return frameBad, nil, 0
	}
	if !bytes.Equal(data[:4], magicBytes) {
		return frameBad, nil, 0
	}
	if len(data) < 8 {
		return frameShort, nil, 0
	}
	n := int(binary.LittleEndian.Uint32(data[4:8]))
	if n < 0 || n > maxLen {
		return frameBad, nil, 0
	}
	if len(data) < FrameHeaderLen+n {
		return frameShort, nil, 0
	}
	payload := data[FrameHeaderLen : FrameHeaderLen+n]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(data[8:12]) {
		return frameBad, nil, 0
	}
	return frameValid, payload, FrameHeaderLen + n
}

// nextCandidate returns the first offset at or after from where a frame
// could start: a full magic, or a tail of data that is a prefix of one.
// It returns len(data) if there is none.
func nextCandidate(data []byte, from int) int {
	if i := bytes.Index(data[from:], magicBytes); i >= 0 {
		return from + i
	}
	for k := len(magicBytes) - 1; k > 0; k-- {
		if at := len(data) - k; at >= from && bytes.HasPrefix(magicBytes, data[at:]) {
			return at
		}
	}
	return len(data)
}

// nextValid returns the first offset at or after from where a complete,
// valid frame starts, or -1.
func nextValid(data []byte, from, maxLen int) int {
	for from < len(data) {
		c := nextCandidate(data, from)
		if c == len(data) {
			return -1
		}
		if st, _, _ := classify(data[c:], maxLen); st == frameValid {
			return c
		}
		from = c + 1
	}
	return -1
}

// ScanFrames walks data, bytes of a file that several writers append
// CSF1 frames to, and splits it into valid frames and damaged runs. It
// calls frame for each valid frame (off is its offset in data) and
// damaged for each maximal run [off, end) of bytes no valid frame covers,
// in file order, and returns how many bytes it consumed: frames and
// damage together cover exactly data[:consumed].
//
// Complete but invalid bytes are damage up to the next place a frame
// could start. A frame that runs past the end of data may be an append in
// flight, so the scan stops before it, unless a complete valid frame
// starts after it: appends do not overlap, so that frame proves the
// earlier one torn. maxLen bounds one payload.
func ScanFrames(data []byte, maxLen int, frame func(off int, payload []byte), damaged func(off, end int)) int {
	pos, dmg := 0, -1
	flush := func() {
		if dmg >= 0 {
			damaged(dmg, pos)
			dmg = -1
		}
	}
	for pos < len(data) {
		st, payload, n := classify(data[pos:], maxLen)
		switch st {
		case frameValid:
			flush()
			frame(pos, payload)
			pos += n
			continue
		case frameBad:
			if dmg < 0 {
				dmg = pos
			}
			pos = nextCandidate(data, pos+1)
			continue
		}
		next := nextValid(data, pos+1, maxLen)
		if next < 0 {
			break
		}
		if dmg < 0 {
			dmg = pos
		}
		pos = next
	}
	flush()
	return pos
}
