package data

import "testing"

func taxSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Field{"id", KindInt},
		Field{"zip", KindString},
		Field{"city", KindString},
		Field{"salary", KindFloat},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchemaRejectsDuplicatesAndEmpty(t *testing.T) {
	if _, err := NewSchema(Field{"a", KindInt}, Field{"a", KindInt}); err == nil {
		t.Error("duplicate field accepted")
	}
	if _, err := NewSchema(Field{"", KindInt}); err == nil {
		t.Error("empty field name accepted")
	}
}

func TestSchemaIndexOfAndField(t *testing.T) {
	s := taxSchema(t)
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.IndexOf("city") != 2 {
		t.Error("IndexOf(city) wrong")
	}
	if s.IndexOf("nope") != -1 {
		t.Error("IndexOf(nope) should be -1")
	}
	if s.Field(3).Type != KindFloat {
		t.Error("Field(3) type wrong")
	}
	fs := s.Fields()
	fs[0].Name = "mutated"
	if s.Field(0).Name != "id" {
		t.Error("Fields() exposed internal slice")
	}
}

func TestSchemaValidate(t *testing.T) {
	s := taxSchema(t)
	good := NewRecord(Int(1), Str("10001"), Str("NYC"), Float(55000))
	if err := s.Validate(good); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
	withNull := NewRecord(Int(1), Null(), Str("NYC"), Float(1))
	if err := s.Validate(withNull); err != nil {
		t.Errorf("null field rejected: %v", err)
	}
	if err := s.Validate(NewRecord(Int(1))); err == nil {
		t.Error("arity mismatch accepted")
	}
	bad := NewRecord(Str("x"), Str("10001"), Str("NYC"), Float(1))
	if err := s.Validate(bad); err == nil {
		t.Error("type mismatch accepted")
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSchema on bad fields did not panic")
		}
	}()
	MustSchema(Field{"a", KindInt}, Field{"a", KindInt})
}
