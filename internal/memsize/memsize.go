// Package memsize estimates the resident heap footprint of a value:
// the value itself plus every allocation reachable from it through
// pointers, slices, maps, strings, and interfaces. Cache budgets
// (internal/memo) charge entries by this estimate, so it must track the
// dominant terms — large backing arrays in particular — rather than the
// shallow struct size, which undercounts by orders of magnitude for
// results carrying per-sample timelines.
//
// The walk is an estimate, not an accounting of the allocator: it
// ignores allocator size-class rounding and map bucket geometry beyond
// a per-entry constant, and slices sharing a backing array are charged
// once (keyed by the array's base pointer). Shared pointers are counted
// once per walk.
package memsize

import (
	"reflect"
	"sync"
)

// Of returns an estimate of the bytes v keeps resident: the top-level
// value plus all reachable heap payload.
func Of(v any) int64 {
	if v == nil {
		return 0
	}
	rv := reflect.ValueOf(v)
	w := walker{seen: make(map[uintptr]bool)}
	return int64(rv.Type().Size()) + w.payload(rv)
}

// mapEntryOverhead approximates the per-entry bucket overhead of a Go
// map beyond the key and element bytes themselves.
const mapEntryOverhead = 16

type walker struct {
	// seen records base pointers of visited heap blocks so shared
	// structure is charged once and cycles terminate.
	seen map[uintptr]bool
}

// payload returns the heap bytes reachable from rv, excluding rv's own
// inline representation (which the caller has already counted as part
// of the enclosing value).
func (w *walker) payload(rv reflect.Value) int64 {
	switch rv.Kind() {
	case reflect.Pointer:
		if rv.IsNil() || w.visited(rv.Pointer()) {
			return 0
		}
		e := rv.Elem()
		return int64(e.Type().Size()) + w.payload(e)

	case reflect.Slice:
		if rv.IsNil() || w.visited(rv.Pointer()) {
			return 0
		}
		et := rv.Type().Elem()
		n := int64(rv.Cap()) * int64(et.Size())
		if !hasPointers(et) {
			return n // fast path: no element walk for flat data
		}
		for i := 0; i < rv.Len(); i++ {
			n += w.payload(rv.Index(i))
		}
		return n

	case reflect.String:
		return int64(rv.Len())

	case reflect.Map:
		if rv.IsNil() || w.visited(rv.Pointer()) {
			return 0
		}
		kt, et := rv.Type().Key(), rv.Type().Elem()
		n := int64(rv.Len()) * (int64(kt.Size()) + int64(et.Size()) + mapEntryOverhead)
		if hasPointers(kt) || hasPointers(et) {
			it := rv.MapRange()
			for it.Next() {
				n += w.payload(it.Key()) + w.payload(it.Value())
			}
		}
		return n

	case reflect.Interface:
		if rv.IsNil() {
			return 0
		}
		e := rv.Elem()
		n := w.payload(e)
		if e.Kind() != reflect.Pointer { // non-pointer values are boxed
			n += int64(e.Type().Size())
		}
		return n

	case reflect.Struct:
		if !hasPointers(rv.Type()) {
			return 0
		}
		var n int64
		for i := 0; i < rv.NumField(); i++ {
			n += w.payload(rv.Field(i))
		}
		return n

	case reflect.Array:
		if !hasPointers(rv.Type().Elem()) {
			return 0
		}
		var n int64
		for i := 0; i < rv.Len(); i++ {
			n += w.payload(rv.Index(i))
		}
		return n

	default:
		// Scalars are fully inline; chans and funcs are charged as bare
		// references (their internals are runtime-owned).
		return 0
	}
}

func (w *walker) visited(p uintptr) bool {
	if w.seen[p] {
		return true
	}
	w.seen[p] = true
	return false
}

var ptrFreeCache sync.Map // reflect.Type -> bool

// hasPointers reports whether values of type t can reference heap
// memory. Pointer-free types let the walker skip per-element traversal
// of large slices and arrays.
func hasPointers(t reflect.Type) bool {
	if v, ok := ptrFreeCache.Load(t); ok {
		return v.(bool)
	}
	var has bool
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Uintptr, reflect.Float32, reflect.Float64,
		reflect.Complex64, reflect.Complex128:
		has = false
	case reflect.Array:
		has = hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				has = true
				break
			}
		}
	default:
		has = true
	}
	ptrFreeCache.Store(t, has)
	return has
}
