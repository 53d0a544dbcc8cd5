// Package codectest holds what the tests of the tree's binary decoders
// share: the allocation measure their fuzzers bound, and the
// deterministic corpus and digest that pin what each decoder accepts
// and what it decodes, so a change to a decoder's code can be shown to
// leave its behaviour byte for byte as it was.
package codectest

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"
)

// AllocBytes returns the bytes one call of f allocates: the least of
// three measurements after a warm-up call, at GOMAXPROCS(1), since the
// heap counters also see whatever other goroutines (the fuzzing
// engine's among them) allocate meanwhile.
func AllocBytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// Corpus returns the differential corpus of seeds: every seed, every
// proper prefix of each, then mutations inputs that each change one
// byte of a seed, drawn from a fixed PRNG seed so the corpus is the
// same on every run.
func Corpus(seeds [][]byte, mutations int) [][]byte {
	var out [][]byte
	for _, s := range seeds {
		out = append(out, s)
		for n := 0; n < len(s); n++ {
			out = append(out, s[:n:n])
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < mutations; i++ {
		s := seeds[rng.Intn(len(seeds))]
		if len(s) == 0 {
			continue
		}
		m := append([]byte(nil), s...)
		m[rng.Intn(len(m))] ^= byte(1 + rng.Intn(255))
		out = append(out, m)
	}
	return out
}

// Digest decodes every input and returns a hash of, per input, whether
// decode accepted it and, when it did, the decoded value, rendered
// deterministically: pointers are followed, nil and empty slices
// differ, map keys are sorted and unexported fields are included (a
// time.Location is named, not walked).
func Digest(inputs [][]byte, decode func([]byte) (any, error)) string {
	h := sha256.New()
	for _, in := range inputs {
		v, err := decode(in)
		if err != nil {
			fmt.Fprint(h, "refused\n")
			continue
		}
		fmt.Fprintf(h, "accepted %s\n", dump(reflect.ValueOf(v)))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

var locationType = reflect.TypeOf((*time.Location)(nil))

// dump renders v for Digest.
func dump(v reflect.Value) string {
	var b strings.Builder
	write(&b, v)
	return b.String()
}

func write(w io.Writer, v reflect.Value) {
	switch v.Kind() {
	case reflect.Invalid:
		fmt.Fprint(w, "nil")
	case reflect.Pointer, reflect.Interface:
		switch {
		case v.IsNil():
			fmt.Fprint(w, "nil")
		case v.Type() == locationType:
			fmt.Fprint(w, "loc")
		default:
			fmt.Fprint(w, "&")
			write(w, v.Elem())
		}
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			fmt.Fprint(w, "nil")
			return
		}
		fmt.Fprint(w, "[")
		for i := 0; i < v.Len(); i++ {
			write(w, v.Index(i))
			fmt.Fprint(w, ",")
		}
		fmt.Fprint(w, "]")
	case reflect.Map:
		if v.IsNil() {
			fmt.Fprint(w, "nil")
			return
		}
		var entries []string
		for it := v.MapRange(); it.Next(); {
			entries = append(entries, dump(it.Key())+":"+dump(it.Value()))
		}
		sort.Strings(entries)
		fmt.Fprintf(w, "map%v", entries)
	case reflect.Struct:
		fmt.Fprintf(w, "%s{", v.Type())
		for i := 0; i < v.NumField(); i++ {
			fmt.Fprintf(w, "%s:", v.Type().Field(i).Name)
			write(w, v.Field(i))
			fmt.Fprint(w, " ")
		}
		fmt.Fprint(w, "}")
	case reflect.String:
		fmt.Fprintf(w, "%q", v.String())
	default:
		fmt.Fprintf(w, "%v", v)
	}
}
