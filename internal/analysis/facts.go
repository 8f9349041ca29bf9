package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/types"
	"reflect"
	"sort"
)

// A Fact is one unit of analyzer knowledge about a package-level object,
// produced while analyzing the package that defines the subject and
// consumed by the same analyzer's later runs over downstream packages.
// Implementations must be JSON-serializable struct pointers and appear in
// their analyzer's FactTypes.
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

// FactStore holds the facts visible to one unit of analysis: facts decoded
// from dependency .vetx files plus facts exported by the current run. One
// store is shared by all analyzers of a unit; entries are namespaced by
// analyzer name.
type FactStore struct {
	// factTypes maps "analyzer/TypeName" to the registered concrete type,
	// for decoding.
	factTypes map[string]reflect.Type
	m         map[factKey]Fact
}

// NewFactStore returns an empty store with the given analyzers' fact types
// registered for decoding.
func NewFactStore(analyzers ...*Analyzer) *FactStore {
	s := &FactStore{factTypes: map[string]reflect.Type{}, m: map[factKey]Fact{}}
	for _, a := range analyzers {
		for _, f := range a.FactTypes {
			if validateFactType(f) == nil {
				s.factTypes[a.Name+"/"+reflect.TypeOf(f).Elem().Name()] = reflect.TypeOf(f)
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
	name := analyzer + "/" + reflect.TypeOf(fact).Elem().Name()
	if _, ok := s.factTypes[name]; !ok {
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

// factRecord is the serialized form of one fact.
type factRecord struct {
	Analyzer string          `json:"a"`
	Pkg      string          `json:"p"`
	Object   string          `json:"o,omitempty"`
	Type     string          `json:"t"` // fact type name within the analyzer
	Data     json.RawMessage `json:"d"`
}

// Encode serializes every fact in the store — the current package's and the
// inherited ones — in a deterministic order. The closure is re-exported
// whole because the unitchecker protocol hands each unit only its direct
// dependencies' .vetx files: transitive facts must ride along.
func (s *FactStore) Encode() ([]byte, error) {
	// Sort the keys before marshalling so both the record order and any
	// marshal failure (which aborts the encode) are deterministic.
	keys := make([]factKey, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.analyzer != b.analyzer {
			return a.analyzer < b.analyzer
		}
		if a.pkg != b.pkg {
			return a.pkg < b.pkg
		}
		return a.object < b.object
	})
	recs := make([]factRecord, 0, len(keys))
	for _, k := range keys {
		f := s.m[k]
		data, err := json.Marshal(f)
		if err != nil {
			return nil, fmt.Errorf("analysis: encode fact %T for %s.%s: %v", f, k.pkg, k.object, err)
		}
		recs = append(recs, factRecord{
			Analyzer: k.analyzer,
			Pkg:      k.pkg,
			Object:   k.object,
			Type:     reflect.TypeOf(f).Elem().Name(),
			Data:     data,
		})
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(recs); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode merges serialized facts into the store. Records whose fact type is
// not registered (an analyzer that no longer exists, or a newer format) are
// skipped: stale cache entries must degrade to "no facts", not to a failed
// build.
func (s *FactStore) Decode(data []byte) error {
	var recs []factRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		return fmt.Errorf("analysis: decode facts: %v", err)
	}
	for _, r := range recs {
		t, ok := s.factTypes[r.Analyzer+"/"+r.Type]
		if !ok {
			continue
		}
		f := reflect.New(t.Elem()).Interface().(Fact)
		if err := json.Unmarshal(r.Data, f); err != nil {
			continue
		}
		s.m[factKey{r.Analyzer, r.Pkg, r.Object}] = f
	}
	return nil
}

// Len reports the number of stored facts (test support).
func (s *FactStore) Len() int { return len(s.m) }
