// Package blob keeps named byte values as files in one directory: the
// state the job service carries across a restart (flight-recorder
// profiles, the cost calibrator's JSON document). A value is replaced whole —
// Put writes a temporary file beside its target and renames it over
// the target, so a reader sees the old bytes or the new ones, never a
// mix. There is no fsync: the flight recorder writes on every job.
package blob

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Dir is a directory of named blobs. Its methods are safe for
// concurrent use; concurrent Puts of one name leave one of the values.
type Dir struct {
	path string
}

// Open returns the directory at path, creating it if needed.
func Open(path string) (*Dir, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("blob: %w", err)
	}
	return &Dir{path: path}, nil
}

// file maps a name to its file. A name may not escape the directory,
// and may not start with a dot, which marks Put's temporary files.
func (d *Dir) file(name string) (string, error) {
	if name == "" || strings.ContainsAny(name, `/\`) || strings.Contains(name, "..") || name[0] == '.' {
		return "", fmt.Errorf("blob: invalid name %q", name)
	}
	return filepath.Join(d.path, name), nil
}

// Put stores b under name, replacing any value it had.
func (d *Dir) Put(name string, b []byte) error {
	p, err := d.file(name)
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(d.path, "."+name+"-*")
	if err != nil {
		return fmt.Errorf("blob: %w", err)
	}
	_, err = f.Write(b)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), p)
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("blob: writing %s: %w", name, err)
	}
	return nil
}

// Get returns the value stored under name. A name never put, or
// deleted, returns an error that errors.Is fs.ErrNotExist.
func (d *Dir) Get(name string) ([]byte, error) {
	p, err := d.file(name)
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(p)
	if err != nil {
		return nil, fmt.Errorf("blob: %w", err)
	}
	return b, nil
}

// Delete removes the value stored under name. A missing name returns
// an error that errors.Is fs.ErrNotExist.
func (d *Dir) Delete(name string) error {
	p, err := d.file(name)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil {
		return fmt.Errorf("blob: %w", err)
	}
	return nil
}

// List returns the stored names in lexical order. A temporary file a
// Put left behind when its process died is not a name.
func (d *Dir) List() ([]string, error) {
	entries, err := os.ReadDir(d.path)
	if err != nil {
		return nil, fmt.Errorf("blob: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.Type().IsRegular() && !strings.HasPrefix(e.Name(), ".") {
			names = append(names, e.Name())
		}
	}
	return names, nil
}
