package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
)

// snapData is a decoded snapshot sidecar: the uncorrected live
// population of one sealed epoch, the correction it was sealed with,
// the canonical S of that epoch (a recovery self-check), and the log
// position just after the covering seal record.
type snapData struct {
	epoch uint64
	next  int
	seg   uint64
	off   int64
	rate  float64
	s     float64
	drops []int
	wts   []weightEntry
	ids   []int
	ts    []float64
}

// encodeSnapshot serializes a captured snapshot:
//
//	magic(8) | epoch u64 | next u64 | seg u64 | off u64 | rate f64 |
//	s f64 | nDrop u32 | nWeight u32 | nLive u64 | drops… | weights… |
//	(id u64, t f64)… | CRC32C u32
//
// little-endian throughout; the CRC covers everything after the magic.
func encodeSnapshot(p *pendingSnap) []byte {
	live := 0
	for _, t := range p.t {
		if t != 0 {
			live++
		}
	}
	n := 8 + 48 + 16 + 8*len(p.drops) + 16*len(p.wts) + 16*live + 4
	b := make([]byte, 0, n)
	b = append(b, snapMagic...)
	b = binary.LittleEndian.AppendUint64(b, p.epoch)
	b = binary.LittleEndian.AppendUint64(b, uint64(p.next))
	b = binary.LittleEndian.AppendUint64(b, p.seg)
	b = binary.LittleEndian.AppendUint64(b, uint64(p.off))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.rate))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.s))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p.drops)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p.wts)))
	b = binary.LittleEndian.AppendUint64(b, uint64(live))
	for _, id := range p.drops {
		b = binary.LittleEndian.AppendUint64(b, uint64(id))
	}
	for _, e := range p.wts {
		b = binary.LittleEndian.AppendUint64(b, uint64(e.id))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.w))
	}
	for id, t := range p.t {
		if t != 0 {
			b = binary.LittleEndian.AppendUint64(b, uint64(id))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t))
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[8:], crcTable))
}

// decodeSnapshot parses and verifies a snapshot sidecar.
func decodeSnapshot(b []byte) (*snapData, error) {
	if len(b) < 8+48+16+4 {
		return nil, fmt.Errorf("wal: snapshot too short (%d bytes)", len(b))
	}
	if string(b[:8]) != snapMagic {
		return nil, fmt.Errorf("wal: bad snapshot magic")
	}
	body, tail := b[8:len(b)-4], b[len(b)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("wal: snapshot checksum mismatch")
	}
	sd := &snapData{
		epoch: binary.LittleEndian.Uint64(body),
		next:  int(binary.LittleEndian.Uint64(body[8:])),
		seg:   binary.LittleEndian.Uint64(body[16:]),
		off:   int64(binary.LittleEndian.Uint64(body[24:])),
		rate:  math.Float64frombits(binary.LittleEndian.Uint64(body[32:])),
		s:     math.Float64frombits(binary.LittleEndian.Uint64(body[40:])),
	}
	nDrop := int(binary.LittleEndian.Uint32(body[48:]))
	nWeight := int(binary.LittleEndian.Uint32(body[52:]))
	nLive := int(binary.LittleEndian.Uint64(body[56:]))
	want := 64 + 8*nDrop + 16*nWeight + 16*nLive
	if len(body) != want {
		return nil, fmt.Errorf("wal: snapshot body has %d bytes, want %d", len(body), want)
	}
	off := 64
	sd.drops = make([]int, nDrop)
	for i := range sd.drops {
		sd.drops[i] = int(binary.LittleEndian.Uint64(body[off:]))
		off += 8
	}
	sd.wts = make([]weightEntry, nWeight)
	for i := range sd.wts {
		sd.wts[i].id = int(binary.LittleEndian.Uint64(body[off:]))
		sd.wts[i].w = math.Float64frombits(binary.LittleEndian.Uint64(body[off+8:]))
		off += 16
	}
	sd.ids = make([]int, nLive)
	sd.ts = make([]float64, nLive)
	for i := range sd.ids {
		sd.ids[i] = int(binary.LittleEndian.Uint64(body[off:]))
		sd.ts[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[off+8:]))
		off += 16
	}
	return sd, nil
}

// readSnapshot loads and verifies one sidecar file.
func readSnapshot(path string) (*snapData, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	sd, err := decodeSnapshot(b)
	if err != nil {
		return nil, fmt.Errorf("wal: %s: %w", path, err)
	}
	return sd, nil
}
