package analysis

import (
	"fmt"
	"go/types"
	"reflect"
)

// A Fact is one unit of analyzer knowledge about a package-level object,
// produced while analyzing the package that defines the subject and
// consumed by the same analyzer's later runs over downstream packages.
// Implementations must be struct pointers and appear in their analyzer's
// FactTypes.
//
// Unlike golang.org/x/tools (which names objects with go/types/objectpath),
// facts here are keyed by a flat string — "F" for a package-level object,
// "T.M" for a method — which covers every subject the heterolint analyzers
// care about while staying stdlib-only.
type Fact interface {
	// AFact marks the type as a fact implementation.
	AFact()
}

// ObjectKey names a package-level object inside its package: "F" for a
// package-level func/var/type/const, "T.M" for method M of named type T.
// Objects that are not package-level (locals, parameters, struct fields)
// have no key and return "".
func ObjectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return ""
			}
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Name()
}

type factKey struct {
	analyzer string
	pkg      string
	object   string // ObjectKey of the subject
}

// FactStore holds the facts of one lint run: every analyzer's runs over
// the packages analyzed so far exported them, and its runs over their
// importers read them. Entries are namespaced by analyzer name.
type FactStore struct {
	// declared holds each analyzer's FactTypes, as "analyzer/TypeName".
	declared map[string]bool
	m        map[factKey]Fact
}

// NewFactStore returns an empty store for the given analyzers' fact types.
func NewFactStore(analyzers ...*Analyzer) *FactStore {
	s := &FactStore{declared: map[string]bool{}, m: map[factKey]Fact{}}
	for _, a := range analyzers {
		for _, f := range a.FactTypes {
			if validateFactType(f) == nil {
				s.declared[a.Name+"/"+reflect.TypeOf(f).Elem().Name()] = true
			}
		}
	}
	return s
}

func validateFactType(f Fact) error {
	t := reflect.TypeOf(f)
	if t == nil || t.Kind() != reflect.Pointer || t.Elem().Kind() != reflect.Struct {
		return fmt.Errorf("fact type %T is not a struct pointer", f)
	}
	return nil
}

// set stores a copy of fact under (analyzer, pkg, object). The copy
// decouples the store from later analyzer-side mutation.
func (s *FactStore) set(analyzer, pkg, object string, fact Fact) error {
	if err := validateFactType(fact); err != nil {
		return err
	}
	if !s.declared[analyzer+"/"+reflect.TypeOf(fact).Elem().Name()] {
		return fmt.Errorf("fact type %T is not declared in analyzer %s's FactTypes", fact, analyzer)
	}
	cp := reflect.New(reflect.TypeOf(fact).Elem())
	cp.Elem().Set(reflect.ValueOf(fact).Elem())
	s.m[factKey{analyzer, pkg, object}] = cp.Interface().(Fact)
	return nil
}

// get copies the stored fact for (analyzer, pkg, object) into dst and
// reports whether one of dst's concrete type was found.
func (s *FactStore) get(analyzer, pkg, object string, dst Fact) bool {
	f, ok := s.m[factKey{analyzer, pkg, object}]
	if !ok || reflect.TypeOf(f) != reflect.TypeOf(dst) {
		return false
	}
	reflect.ValueOf(dst).Elem().Set(reflect.ValueOf(f).Elem())
	return true
}
