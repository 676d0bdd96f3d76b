// Package snapshottest holds the checks every package with a checkpoint
// walk runs over it — the round-trip property and the field-coverage
// guard for leaf records — and the bare-payload codec under them.
package snapshottest

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"

	"outran/internal/snapshot"
)

// Encode returns the section payload walk writes.
func Encode(walk func(*snapshot.Walker)) []byte {
	return Payload(archive(walk), "")
}

// Decode runs walk over payload as an archive's one section: it returns
// the walk's first error, or snapshot.ErrCorrupt for bytes left unread.
func Decode(payload []byte, walk func(*snapshot.Walker)) error {
	return archive(func(w *snapshot.Walker) { w.Raw(payload) }).Walk("", walk)
}

// Payload returns the bytes of a's section name, read through
// Archive.Walk one at a time to the end of the section.
func Payload(a *snapshot.Archive, name string) []byte {
	var out []byte
	a.Walk(name, func(w *snapshot.Walker) {
		var c uint8
		for w.U8(&c); w.Err() == nil; w.U8(&c) {
			out = append(out, c)
		}
	})
	return out
}

// archive opens the one-section archive walk writes.
func archive(walk func(*snapshot.Walker)) *snapshot.Archive {
	var b snapshot.Builder
	b.Walk("", walk)
	a, _ := snapshot.Open(b.Bytes()) // what a Builder writes opens
	return a
}

// RoundTrip encodes through src, decodes those bytes through dst, and
// fails t unless the decode is clean, consumes every byte, and dst then
// encodes to the same bytes. src and dst are the same walk bound to the
// populated value and to a freshly built one. It returns the bytes.
func RoundTrip(t testing.TB, src, dst func(*snapshot.Walker)) []byte {
	t.Helper()
	img := Encode(src)
	if err := Decode(img, dst); err != nil {
		t.Fatalf("decoding what the walk encoded: %v", err)
	}
	if again := Encode(dst); !bytes.Equal(img, again) {
		t.Fatalf("encode -> decode -> encode is not byte-identical (%d vs %d bytes)", len(img), len(again))
	}
	return img
}

// Fields is the field-coverage guard for a leaf record T: it sets every
// field of a T, unexported and nested ones included, to a distinct
// non-zero value, walks it out and back into a zero T, and requires the
// two to be deeply equal — so a field added to T without a line in its
// walk fails here, not in a resume. notState names the fields that are
// deliberately not checkpoint state, each with its reason; they stay
// zero, and naming a field T lacks is an error.
func Fields[T any](t testing.TB, walk func(*T, *snapshot.Walker), notState map[string]string) {
	t.Helper()
	var src, dst T
	v := reflect.ValueOf(&src).Elem()
	for name, reason := range notState {
		if !v.FieldByName(name).IsValid() || reason == "" {
			t.Fatalf("%T: non-state field %q does not exist or carries no reason", src, name)
		}
	}
	n := 0
	for i := 0; i < v.NumField(); i++ {
		if _, skip := notState[v.Type().Field(i).Name]; !skip {
			fill(t, v.Field(i), &n)
		}
	}
	RoundTrip(t,
		func(w *snapshot.Walker) { walk(&src, w) },
		func(w *snapshot.Walker) { walk(&dst, w) })
	if !reflect.DeepEqual(src, dst) {
		t.Fatalf("%T does not survive its walk: a field is missing from it (or is not state and must be named with its reason)\n out:  %+v\n back: %+v", src, src, dst)
	}
}

// settable lifts reflect's ban on writing unexported fields.
func settable(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// fill sets v and everything under it to distinct non-zero values,
// counting in n.
func fill(t testing.TB, v reflect.Value, n *int) {
	t.Helper()
	v = settable(v)
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n%100 + 1))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n%100 + 1))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.String:
		v.SetString(string(rune('a' + *n%26)))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(t, v.Field(i), n)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(t, v.Index(i), n)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), n)
	default:
		t.Fatalf("field of kind %v: decide whether it is checkpoint state, then teach its walk or name it as non-state", v.Kind())
	}
}
