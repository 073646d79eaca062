package trace

import (
	"encoding/binary"
	"fmt"
)

// encMagic heads every encoded trace; the format version rides on the
// package's Version constant.
const encMagic = "sftrace\x00"

// MarshalBinary encodes the trace for persistence. The layout is the record streams plus
// identity metadata, little-endian, ending with the content digest so
// Decode can verify integrity without trusting the container.
func (t *Trace) MarshalBinary() ([]byte, error) {
	size := len(encMagic) + 8 + // magic, version
		4 + len(t.progName) + 4 + // name, progLen
		3*4 + // stream lengths
		4*len(t.pcs) + len(t.flags) + 8*len(t.vals) + 8*len(t.addrs) +
		4 + len(t.id)
	buf := make([]byte, 0, size)
	buf = append(buf, encMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, Version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.progName)))
	buf = append(buf, t.progName...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.progLen))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.pcs)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.vals)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.addrs)))
	for _, pc := range t.pcs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(pc))
	}
	buf = append(buf, t.flags...)
	for _, v := range t.vals {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	for _, a := range t.addrs {
		buf = binary.LittleEndian.AppendUint64(buf, a)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.id)))
	buf = append(buf, t.id...)
	return buf, nil
}

// Decode reconstructs a trace encoded by MarshalBinary, recomputing the
// content digest over the decoded streams and requiring it to match the
// recorded one — a corrupted or tampered encoding can therefore never
// be replayed. A trace from a different capture-behavior Version is
// rejected outright.
func Decode(data []byte) (*Trace, error) {
	d := decoder{buf: data}
	if string(d.take(len(encMagic))) != encMagic {
		return nil, fmt.Errorf("trace: decode: bad magic")
	}
	if v := d.u64(); v != Version {
		return nil, fmt.Errorf("trace: decode: version %d, want %d", v, Version)
	}
	t := &Trace{}
	t.progName = string(d.take(int(d.u32())))
	t.progLen = int(d.u32())
	nRec, nVal, nAddr := int(d.u32()), int(d.u32()), int(d.u32())
	if d.err != nil {
		return nil, fmt.Errorf("trace: decode: truncated header")
	}
	// The streams are bounded by the remaining bytes; reject absurd
	// counts before allocating.
	if need := 4*nRec + nRec + 8*nVal + 8*nAddr; need < 0 || need > len(d.buf)-d.off {
		return nil, fmt.Errorf("trace: decode: truncated streams")
	}
	t.pcs = make([]int32, nRec)
	for i := range t.pcs {
		t.pcs[i] = int32(d.u32())
	}
	t.flags = append([]uint8(nil), d.take(nRec)...)
	t.vals = make([]uint64, nVal)
	for i := range t.vals {
		t.vals[i] = d.u64()
	}
	t.addrs = make([]uint64, nAddr)
	for i := range t.addrs {
		t.addrs[i] = d.u64()
	}
	t.id = string(d.take(int(d.u32())))
	if d.err != nil {
		return nil, fmt.Errorf("trace: decode: truncated trace")
	}
	if got := t.digest(); got != t.id {
		return nil, fmt.Errorf("trace: decode: content digest mismatch (stored %.12s…, computed %.12s…)",
			t.id, got)
	}
	return t, nil
}

// decoder is a minimal cursor over an encoded trace; the first failed
// read poisons it and every later read returns zeros.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil || n < 0 || d.off+n > len(d.buf) {
		d.err = fmt.Errorf("short read")
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
