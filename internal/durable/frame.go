package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Disk-cache entries, journal records and job-log records share one
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
	if len(data) < FrameHeaderLen {
		return nil, nil, errors.New("durable: frame truncated")
	}
	if binary.LittleEndian.Uint32(data[0:4]) != frameMagic {
		return nil, nil, errors.New("durable: bad frame magic")
	}
	n := int(binary.LittleEndian.Uint32(data[4:8]))
	if n < 0 || n > maxLen {
		return nil, nil, errors.New("durable: frame length out of bounds")
	}
	if len(data) < FrameHeaderLen+n {
		return nil, nil, errors.New("durable: frame truncated")
	}
	payload = data[FrameHeaderLen : FrameHeaderLen+n]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(data[8:12]) {
		return nil, nil, errors.New("durable: frame CRC mismatch")
	}
	return payload, data[FrameHeaderLen+n:], nil
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
