package blob

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

func open(t *testing.T) (*Dir, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "state")
	d, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return d, path
}

func TestRoundTrip(t *testing.T) {
	d, path := open(t)
	if err := d.Put("a.json", []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("b.bin", []byte{0, 1, 2, 0xff}); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("a.json", []byte(`{"x":2}`)); err != nil {
		t.Fatal(err)
	}
	if got, err := d.Get("a.json"); err != nil || string(got) != `{"x":2}` {
		t.Errorf("Get(a.json) = %q, %v", got, err)
	}
	if got, err := d.Get("b.bin"); err != nil || !bytes.Equal(got, []byte{0, 1, 2, 0xff}) {
		t.Errorf("Get(b.bin) = %v, %v", got, err)
	}
	// The value is the file: another process reads the same bytes.
	if raw, err := os.ReadFile(filepath.Join(path, "b.bin")); err != nil || !bytes.Equal(raw, []byte{0, 1, 2, 0xff}) {
		t.Errorf("file b.bin holds %v, %v", raw, err)
	}
	if names, err := d.List(); err != nil || !slices.Equal(names, []string{"a.json", "b.bin"}) {
		t.Errorf("List = %v, %v", names, err)
	}
	if err := d.Delete("a.json"); err != nil {
		t.Fatal(err)
	}
	if names, _ := d.List(); !slices.Equal(names, []string{"b.bin"}) {
		t.Errorf("List after Delete = %v", names)
	}
	// Reopening the directory finds what the first handle wrote.
	d2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := d2.Get("b.bin"); err != nil || !bytes.Equal(got, []byte{0, 1, 2, 0xff}) {
		t.Errorf("Get(b.bin) after reopening = %v, %v", got, err)
	}
}

func TestMissingNameIsNotExist(t *testing.T) {
	d, _ := open(t)
	if _, err := d.Get("absent"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Get of a missing name: %v, want fs.ErrNotExist", err)
	}
	if err := d.Delete("absent"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Delete of a missing name: %v, want fs.ErrNotExist", err)
	}
}

func TestInvalidNamesRejected(t *testing.T) {
	d, path := open(t)
	for _, name := range []string{"", "a/b", `a\b`, "..", "../escape", "x..y", ".hidden"} {
		if err := d.Put(name, []byte("v")); err == nil {
			t.Errorf("Put(%q) accepted", name)
		}
		if _, err := d.Get(name); err == nil || errors.Is(err, fs.ErrNotExist) {
			t.Errorf("Get(%q) = %v, want a rejection", name, err)
		}
		if err := d.Delete(name); err == nil || errors.Is(err, fs.ErrNotExist) {
			t.Errorf("Delete(%q) = %v, want a rejection", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(filepath.Dir(path), "escape")); !errors.Is(err, fs.ErrNotExist) {
		t.Error("a rejected name wrote outside the directory")
	}
}

// A process that dies between Put's write and its rename leaves a
// temporary file; it is not a value.
func TestLeftoverTempFileNotListed(t *testing.T) {
	d, path := open(t)
	if err := d.Put("kept", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(path, ".kept-123456"), []byte("half"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(path, "subdir"), 0o755); err != nil {
		t.Fatal(err)
	}
	if names, err := d.List(); err != nil || !slices.Equal(names, []string{"kept"}) {
		t.Errorf("List = %v, %v, want [kept]", names, err)
	}
}

// A reader racing a writer sees one whole value or the other, never a
// torn or truncated file.
func TestOverwriteNeverExposesPartialValue(t *testing.T) {
	d, _ := open(t)
	small := bytes.Repeat([]byte("a"), 1<<10)
	large := bytes.Repeat([]byte("b"), 1<<18)
	if err := d.Put("v", small); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			v := small
			if i%2 == 0 {
				v = large
			}
			if err := d.Put("v", v); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		got, err := d.Get("v")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, small) && !bytes.Equal(got, large) {
			t.Fatalf("read %d bytes that are neither value", len(got))
		}
	}
	close(stop)
	wg.Wait()
}

func TestConcurrentPutsLeaveOneCompleteValue(t *testing.T) {
	d, _ := open(t)
	const writers = 8
	values := make([][]byte, writers)
	for w := range values {
		values[w] = bytes.Repeat([]byte(fmt.Sprintf("%d", w)), 1000*(w+1))
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := d.Put("one", values[w]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	got, err := d.Get("one")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(values, func(v []byte) bool { return bytes.Equal(v, got) }) {
		t.Errorf("after concurrent Puts the value is %d bytes that no writer wrote", len(got))
	}
	if names, err := d.List(); err != nil || !slices.Equal(names, []string{"one"}) {
		t.Errorf("List = %v, %v, want [one] with no temporary file left", names, err)
	}
}
