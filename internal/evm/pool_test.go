package evm

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestReleaseFrameScrubsEveryField sets every field of a Frame, down to the
// leaves of its nested structs, to a non-zero value, releases it, and
// requires each field to be zero again: a Frame field without its scrub
// line in releaseFrame fails here, whatever its type. Two fields keep
// storage on purpose and are held to their observable state instead: the
// memory retains its backing array (Memory.release) and must be empty, and
// the stack's fixed array keeps its dead slots (Stack.reset), which no
// operation reads before a push overwrites them, and must hold no element.
func TestReleaseFrameScrubsEveryField(t *testing.T) {
	f := acquireFrame()
	v := reflect.ValueOf(f).Elem()
	for i := 0; i < v.NumField(); i++ {
		fillNonZero(t, v.Type().Field(i).Name, settableField(v.Field(i)))
	}
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("test setup: field %s is still zero after the fill", v.Type().Field(i).Name)
		}
	}

	releaseFrame(f)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		switch name {
		case "memory":
			if f.memory.Len() != 0 {
				t.Errorf("released frame's memory holds %d bytes", f.memory.Len())
			}
		case "stack":
			if f.stack.Len() != 0 {
				t.Errorf("released frame's stack holds %d elements", f.stack.Len())
			}
		default:
			if !v.Field(i).IsZero() {
				t.Errorf("releaseFrame leaves field %s set: %v", name, v.Field(i))
			}
		}
	}
}

// settableField returns v, an unexported field, as a value reflect may set.
func settableField(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// fillNonZero makes v non-zero at every leaf: a one-element slice, filled
// in turn, a pointer to a fresh value, an empty map, every element of an
// array and every field of a struct.
func fillNonZero(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillNonZero(t, name, v.Index(0))
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillNonZero(t, name, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNonZero(t, name+"."+v.Type().Field(i).Name, settableField(v.Field(i)))
		}
	default:
		t.Fatalf("field %s: no non-zero value for a %v; teach fill this kind", name, v.Kind())
	}
}
