package codec

import (
	"encoding/binary"
	"errors"
	"testing"
)

func TestDecoderReads(t *testing.T) {
	b := []byte{7}
	b = binary.LittleEndian.AppendUint16(b, 0xBEEF)
	b = binary.LittleEndian.AppendUint32(b, 0xDEADBEEF)
	b = binary.LittleEndian.AppendUint64(b, 1<<63|5)
	b = binary.AppendUvarint(b, 300)
	b = binary.AppendVarint(b, -300)
	b = append(b, "abc"...)
	d := NewDecoder(b)
	if v := d.U8(); v != 7 {
		t.Errorf("U8 = %d", v)
	}
	if v := d.U16(); v != 0xBEEF {
		t.Errorf("U16 = %#x", v)
	}
	if v := d.U32(); v != 0xDEADBEEF {
		t.Errorf("U32 = %#x", v)
	}
	if v := d.U64(); v != 1<<63|5 {
		t.Errorf("U64 = %#x", v)
	}
	if v := d.Uvarint(); v != 300 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := d.Varint(); v != -300 {
		t.Errorf("Varint = %d", v)
	}
	if d.Len() != 3 {
		t.Errorf("Len = %d, want 3", d.Len())
	}
	if v := d.Bytes(3); string(v) != "abc" || cap(v) != 3 || &v[0] != &b[len(b)-3] {
		t.Errorf("Bytes = %q (cap %d), want the input's last 3 bytes, aliased", v, cap(v))
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestDecoderSticky: the first failure is kept, the rest of the input is
// dropped, and every later read returns a zero value.
func TestDecoderSticky(t *testing.T) {
	for name, read := range map[string]func(*Decoder){
		"U16":     func(d *Decoder) { d.U16() },
		"U32":     func(d *Decoder) { d.U32() },
		"U64":     func(d *Decoder) { d.U64() },
		"Uvarint": func(d *Decoder) { d.Uvarint() },
		"Varint":  func(d *Decoder) { d.Varint() },
		"Bytes":   func(d *Decoder) { d.Bytes(2) },
	} {
		d := NewDecoder([]byte{0x80})
		read(&d)
		if !errors.Is(d.Err(), ErrTruncated) || d.Len() != 0 {
			t.Errorf("%s of 1 byte: err %v, %d bytes left", name, d.Err(), d.Len())
		}
		if d.U8() != 0 || d.Bytes(0) != nil || !errors.Is(d.Finish(), ErrTruncated) {
			t.Errorf("%s: a read after the failure did not return zero", name)
		}
	}
	d := NewDecoder([]byte{1, 2, 3})
	other := errors.New("unknown kind")
	d.Fail(other)
	d.Fail(errors.New("second"))
	if d.U8(); d.Finish() != other {
		t.Errorf("Finish = %v, want the first failure", d.Finish())
	}
	if d := NewDecoder([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}); d.Uvarint() != 0 || d.Err() == nil {
		t.Error("an overflowing uvarint decoded")
	}
}

func TestDecoderCount(t *testing.T) {
	d := NewDecoder(make([]byte, 33))
	if n := d.Count(2, 16); n != 2 || d.Err() != nil {
		t.Fatalf("Count(2, 16) of 33 bytes = %d, %v", n, d.Err())
	}
	if n := d.Count(3, 16); n != 0 || !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("Count(3, 16) of 33 bytes = %d, %v; want a refusal", n, d.Err())
	}
	d = NewDecoder(nil)
	if n := d.Count(0, 1); n != 0 || d.Err() != nil {
		t.Fatalf("Count(0, 1) of nothing = %d, %v", n, d.Err())
	}
	if n := d.Count(1<<63, 1); n != 0 || d.Err() == nil {
		t.Fatalf("Count(1<<63, 1) of nothing = %d, %v; want a refusal", n, d.Err())
	}
}

func TestDecoderFinishTrailing(t *testing.T) {
	d := NewDecoder([]byte{1, 2, 3})
	d.U8()
	if err := d.Finish(); err == nil || err.Error() != "2 trailing bytes" {
		t.Fatalf("Finish = %v, want 2 trailing bytes", err)
	}
}
