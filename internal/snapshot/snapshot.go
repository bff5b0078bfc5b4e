// Package snapshot implements the versioned, checksummed binary format
// that serializes the simulator's full machine state mid-kernel
// (docs/ROBUSTNESS.md).
//
// The format is deliberately dumb: a fixed magic, a format version, a
// varint-encoded payload, and a CRC-32C trailer. There is no schema in the
// stream — encoder and decoder must agree field-for-field, which is why
// every encode site is mirrored by a Section tag (cheap self-description
// that turns a drifted decoder into a loud error instead of silently
// misaligned state), why each state-holding package keeps a field manifest
// checked by Coverage, and why the snapshotguard analyzer
// (docs/STATIC_ANALYSIS.md) refuses new struct fields that no snapshot
// code mentions. Any change to what is encoded must bump Version; old
// snapshots are rejected, never migrated — a snapshot is a crash-recovery
// artifact with the lifetime of one sweep, not an archival format.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"reflect"
	"sort"

	"repro/internal/isa"
)

// Version is the snapshot format version. Bump it whenever the set or
// order of encoded fields changes anywhere in the machine state; decoding
// rejects every other version.
const Version = 2

// magic identifies a snapshot stream; the trailing byte leaves room to
// change the container (not the payload schema) without colliding.
var magic = [8]byte{'S', 'U', 'B', 'C', 'S', 'N', 'P', 1}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encoder accumulates a snapshot payload in memory; Finish frames it with
// the magic, version, length, and CRC-32C trailer and writes it out.
// Encoders are single-use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty Encoder.
func NewEncoder() *Encoder { return &Encoder{buf: make([]byte, 0, 4096)} }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Varint appends a zigzag-encoded signed varint.
func (e *Encoder) Varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Int appends an int as a signed varint.
func (e *Encoder) Int(v int) { e.Varint(int64(v)) }

// Bool appends a bool as one byte.
func (e *Encoder) Bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Bytes appends a length-prefixed byte slice.
func (e *Encoder) Bytes(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Section appends a named section marker. Decoders verify the tag, so a
// drifted field layout fails at the next section boundary with both names
// in the error instead of decoding garbage.
func (e *Encoder) Section(tag string) { e.String(tag) }

// Instr appends a full instruction descriptor.
func (e *Encoder) Instr(in *isa.Instr) {
	e.Uvarint(uint64(in.Op))
	e.Uvarint(uint64(in.Dst))
	for _, s := range in.Srcs {
		e.Uvarint(uint64(s))
	}
	e.Uvarint(uint64(in.Mem.Pattern))
	e.Uvarint(uint64(in.Mem.Footprint))
	e.Uvarint(uint64(in.Mem.StrideBytes))
	e.Bool(in.Mem.Shared)
	e.Uvarint(uint64(in.Mem.Divergence))
}

// Len returns the current payload size in bytes.
func (e *Encoder) Len() int { return len(e.buf) }

// Finish frames the payload and writes the complete snapshot to w:
// magic | uvarint version | uvarint payload-length | payload | crc32c(LE),
// with the checksum covering everything before it.
func (e *Encoder) Finish(w io.Writer) error {
	framed := make([]byte, 0, len(e.buf)+24)
	framed = append(framed, magic[:]...)
	framed = binary.AppendUvarint(framed, Version)
	framed = binary.AppendUvarint(framed, uint64(len(e.buf)))
	framed = append(framed, e.buf...)
	framed = binary.LittleEndian.AppendUint32(framed, crc32.Checksum(framed, castagnoli))
	_, err := w.Write(framed)
	return err
}

// Decoder reads back a snapshot produced by Encoder.Finish. NewDecoder
// verifies the frame (magic, version, length, checksum) up front; the
// field readers then never fail individually — the first structural
// mismatch sets a sticky error, subsequent reads return zero values, and
// Finish reports the error plus any unconsumed payload. Callers therefore
// decode straight-line and check once at the end.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder reads the entire stream from r and verifies the frame.
func NewDecoder(r io.Reader) (*Decoder, error) {
	all, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("snapshot: read: %w", err)
	}
	if len(all) < len(magic)+2+4 {
		return nil, fmt.Errorf("snapshot: truncated frame (%d bytes)", len(all))
	}
	body, tail := all[:len(all)-4], all[len(all)-4:]
	if got, want := binary.LittleEndian.Uint32(tail), crc32.Checksum(body, castagnoli); got != want {
		return nil, fmt.Errorf("snapshot: checksum mismatch (stored %08x, computed %08x) — file corrupt or torn", got, want)
	}
	if string(body[:len(magic)]) != string(magic[:]) {
		return nil, fmt.Errorf("snapshot: bad magic — not a snapshot file")
	}
	rest := body[len(magic):]
	ver, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("snapshot: malformed version field")
	}
	if ver != Version {
		return nil, fmt.Errorf("snapshot: format version %d, this build reads only %d — re-run from scratch", ver, Version)
	}
	rest = rest[n:]
	plen, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("snapshot: malformed length field")
	}
	rest = rest[n:]
	if uint64(len(rest)) != plen {
		return nil, fmt.Errorf("snapshot: payload length %d, header promises %d", len(rest), plen)
	}
	return &Decoder{buf: rest}, nil
}

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("snapshot: offset %d: %s", d.off, fmt.Sprintf(format, args...))
	}
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

// Varint reads a signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return v
}

// Int reads an int.
func (d *Decoder) Int() int { return int(d.Varint()) }

// Bool reads a bool.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.buf) {
		d.fail("bool past end of payload")
		return false
	}
	b := d.buf[d.off]
	d.off++
	if b > 1 {
		d.fail("bool byte %d", b)
		return false
	}
	return b == 1
}

// Bytes reads a length-prefixed byte slice (a copy).
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.buf)-d.off) < n {
		d.fail("byte run of %d past end of payload", n)
		return nil
	}
	out := make([]byte, n)
	copy(out, d.buf[d.off:])
	d.off += int(n)
	return out
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.Bytes()) }

// Section reads a section marker and verifies it matches tag.
func (d *Decoder) Section(tag string) {
	got := d.String()
	if d.err == nil && got != tag {
		d.fail("section %q, want %q — snapshot layout drift", got, tag)
	}
}

// Instr reads an instruction descriptor.
func (d *Decoder) Instr() isa.Instr {
	var in isa.Instr
	in.Op = isa.Op(d.Uvarint())
	in.Dst = isa.Reg(d.Uvarint())
	for i := range in.Srcs {
		in.Srcs[i] = isa.Reg(d.Uvarint())
	}
	in.Mem.Pattern = isa.Pattern(d.Uvarint())
	in.Mem.Footprint = uint32(d.Uvarint())
	in.Mem.StrideBytes = uint32(d.Uvarint())
	in.Mem.Shared = d.Bool()
	in.Mem.Divergence = uint8(d.Uvarint())
	return in
}

// Err returns the sticky decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Finish verifies the whole payload decoded cleanly and completely.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("snapshot: %d trailing payload bytes — snapshot layout drift", len(d.buf)-d.off)
	}
	return nil
}

// Coverage checks a package's snapshot field manifest against the real
// struct: every field of typ (exported or not) must appear as a manifest
// key, and every manifest key must name a live field. The value is
// free-text documentation — "encoded", or "skip: <why the field need not
// be serialized>". Each state-holding package keeps its manifests next to
// its encode/decode code and asserts them in a completeness test, so
// adding a struct field without deciding its snapshot fate fails the
// build's test run (and the snapshotguard analyzer fails the lint run).
func Coverage(typ reflect.Type, manifest map[string]string) error {
	if typ.Kind() != reflect.Struct {
		return fmt.Errorf("snapshot: Coverage wants a struct type, got %s", typ.Kind())
	}
	live := make(map[string]bool, typ.NumField())
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		live[name] = true
		if _, ok := manifest[name]; !ok {
			return fmt.Errorf("snapshot: %s.%s is not in the snapshot manifest — encode it and bump snapshot.Version, or record an explicit \"skip: ...\" entry", typ.Name(), name)
		}
	}
	keys := make([]string, 0, len(manifest))
	for k := range manifest {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !live[k] {
			return fmt.Errorf("snapshot: manifest entry %s.%s names no field — remove the stale entry", typ.Name(), k)
		}
	}
	return nil
}
