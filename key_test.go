package blp

import (
	"reflect"
	"testing"
)

// TestKeyCoversEveryField walks Options by reflection and requires each
// field to land in exactly one of two camps:
//
//   - simulation-identity fields: perturbing the field changes Key(),
//     so two different simulations can never share a cache entry;
//   - output-only fields (TraceEvents, Flight): explicitly zeroed in
//     Key(), so attaching a recorder or tracing does not defeat
//     memoization.
//
// This is the guard a new Options field cannot slip past: forget to
// either include it in the identity or zero it in Key() and this test
// names it. Reference-kind fields additionally must be output-only —
// Key renders the struct with %+v, which formats pointers as addresses,
// and an address is not a canonical identity.
func TestKeyCoversEveryField(t *testing.T) {
	// Output-only fields, zeroed in Key (keep in sync with Options.Key).
	outputOnly := map[string]bool{
		"TraceEvents": true,
		"Flight":      true,
	}

	base := Options{Benchmark: "cc", Scale: 6}
	baseKey := base.Key()
	rt := reflect.TypeOf(Options{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		switch f.Type.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Func, reflect.Chan, reflect.Interface:
			if !outputOnly[f.Name] {
				t.Errorf("field %s is reference-kind: %%+v would render an address into Key; "+
					"either make it a value or zero it in Key() and list it here", f.Name)
				continue
			}
		}

		o := base
		fv := reflect.ValueOf(&o).Elem().Field(i)
		// Perturb with values no normalized() default resolves to, so the
		// canonicalization cannot mask the change.
		switch f.Type.Kind() {
		case reflect.String:
			fv.SetString("perturbed")
		case reflect.Int, reflect.Int64:
			fv.SetInt(7)
		case reflect.Uint64:
			fv.SetUint(9)
		case reflect.Bool:
			fv.SetBool(true)
		case reflect.Pointer:
			fv.Set(reflect.New(f.Type.Elem()))
		default:
			t.Errorf("field %s has kind %v this test does not know how to perturb; extend it",
				f.Name, f.Type.Kind())
			continue
		}

		changed := o.Key() != baseKey
		if outputOnly[f.Name] && changed {
			t.Errorf("output-only field %s leaked into Key()", f.Name)
		}
		if !outputOnly[f.Name] && !changed {
			t.Errorf("field %s does not affect Key(): two different simulations would share a cache entry",
				f.Name)
		}
	}
}
