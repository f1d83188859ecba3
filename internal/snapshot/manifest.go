package snapshot

import (
	"reflect"
	"sort"
)

// TestingT is the subset of *testing.T the manifest checker needs.
type TestingT interface {
	Helper()
	Errorf(format string, args ...any)
}

// CheckManifest is the exhaustiveness guard behind every component codec:
// a per-package test lists, field by field, whether State visits a field
// (saved) or deliberately reconstructs/skips it (rebuilt), and this
// helper fails the test when the struct has drifted — a new field that is
// in neither list, a listed field that no longer exists, or a field listed
// twice. Adding a field to a snapshotted struct therefore breaks the build
// until its checkpoint treatment is declared. v is a value of the struct
// type, or a pointer to one.
func CheckManifest(t TestingT, v any, saved, rebuilt []string) {
	t.Helper()
	typ := reflect.TypeOf(v)
	for typ.Kind() == reflect.Pointer {
		typ = typ.Elem()
	}
	if typ.Kind() != reflect.Struct {
		t.Errorf("snapshot manifest: %v is not a struct", typ)
		return
	}
	claimed := map[string]string{}
	for _, f := range saved {
		claimed[f] = "saved"
	}
	for _, f := range rebuilt {
		if prev, dup := claimed[f]; dup {
			t.Errorf("snapshot manifest %v: field %q listed as both %s and rebuilt", typ, f, prev)
		}
		claimed[f] = "rebuilt"
	}
	if len(claimed) != len(saved)+len(rebuilt) {
		// Duplicates within one list.
		seen := map[string]bool{}
		for _, f := range append(append([]string{}, saved...), rebuilt...) {
			if seen[f] {
				t.Errorf("snapshot manifest %v: field %q listed twice", typ, f)
			}
			seen[f] = true
		}
	}
	fields := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if name == "_" {
			continue // padding
		}
		fields[name] = true
		if _, ok := claimed[name]; !ok {
			t.Errorf("snapshot manifest %v: field %q is not covered — declare it saved or rebuilt (and update State)", typ, name)
		}
	}
	var stale []string
	for f := range claimed {
		if !fields[f] {
			stale = append(stale, f)
		}
	}
	sort.Strings(stale)
	for _, f := range stale {
		t.Errorf("snapshot manifest %v: listed field %q does not exist", typ, f)
	}
}
