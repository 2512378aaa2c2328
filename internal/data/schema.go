package data

import (
	"fmt"
	"strings"
)

// Field is one named, typed column of a schema.
type Field struct {
	Name string
	Type Kind
}

// Schema names and types the fields of a record stream. Schemas are
// advisory in RHEEM's UDF-centric model — logical operators may emit
// records of any shape — but sources, sinks, the relational platform and
// the declarative layer all carry schemas, and Validate lets plan
// construction fail fast on arity or type mismatches.
type Schema struct {
	fields []Field
	byName map[string]int
}

// NewSchema builds a schema from the given fields. Duplicate field names
// are rejected.
func NewSchema(fields ...Field) (*Schema, error) {
	s := &Schema{fields: fields, byName: make(map[string]int, len(fields))}
	for i, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("data: schema field %d has empty name", i)
		}
		if _, dup := s.byName[f.Name]; dup {
			return nil, fmt.Errorf("data: duplicate schema field %q", f.Name)
		}
		s.byName[f.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema for statically known field lists; it panics on
// error and is intended for package-level schema variables.
func MustSchema(fields ...Field) *Schema {
	s, err := NewSchema(fields...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len reports the number of fields.
func (s *Schema) Len() int { return len(s.fields) }

// Field returns field i.
func (s *Schema) Field(i int) Field { return s.fields[i] }

// Fields returns a copy of the field list.
func (s *Schema) Fields() []Field {
	out := make([]Field, len(s.fields))
	copy(out, s.fields)
	return out
}

// IndexOf returns the position of the named field, or -1 if absent.
func (s *Schema) IndexOf(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// Validate checks that a record matches the schema's arity and that each
// non-null field has the declared kind.
func (s *Schema) Validate(r Record) error {
	if r.Len() != len(s.fields) {
		return fmt.Errorf("data: record arity %d does not match schema %s", r.Len(), s)
	}
	for i, f := range s.fields {
		v := r.Field(i)
		if v.IsNull() {
			continue
		}
		if v.Kind() != f.Type {
			return fmt.Errorf("data: field %q: got %s, schema says %s", f.Name, v.Kind(), f.Type)
		}
	}
	return nil
}

// String renders the schema as "name:type, ...".
func (s *Schema) String() string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, f := range s.fields {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(f.Name)
		sb.WriteByte(':')
		sb.WriteString(f.Type.String())
	}
	sb.WriteByte(']')
	return sb.String()
}

// Spec renders the schema as "name:type,name:type,...".
func (s *Schema) Spec() string {
	parts := make([]string, len(s.fields))
	for i, f := range s.fields {
		parts[i] = f.Name + ":" + f.Type.String()
	}
	return strings.Join(parts, ",")
}
