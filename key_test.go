package blp

import (
	"reflect"
	"testing"
)

// TestKeyCoversEveryField walks Options by reflection and requires that
// perturbing any field changes Key(), so two different simulations can
// never share a cache entry. Options names only the simulation, so every
// field counts; a reference-kind field fails outright, because Key
// renders the struct with %+v, which formats pointers as addresses, and
// an address is not a canonical identity.
func TestKeyCoversEveryField(t *testing.T) {
	base := Options{Benchmark: "cc", Scale: 6}
	baseKey := base.Key()
	rt := reflect.TypeOf(Options{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
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
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Func, reflect.Chan, reflect.Interface:
			t.Errorf("field %s is reference-kind: %%+v would render an address into Key", f.Name)
			continue
		default:
			t.Errorf("field %s has kind %v this test does not know how to perturb; extend it",
				f.Name, f.Type.Kind())
			continue
		}
		if o.Key() == baseKey {
			t.Errorf("field %s does not affect Key(): two different simulations would share a cache entry",
				f.Name)
		}
	}
}
