// Package storage is what is left of RHEEM's data storage abstraction
// (paper §6), which no execution path reads through: the x-store level's
// Store interface, whose implementations persist data quanta in their
// native representation (driver memory, CSV files, simulated-DFS blocks),
// and the Cartilage-style transformation plans of *storage atoms* — "the
// minimum unit of data quanta transformation (e.g., projection)". The
// placement manager that priced stores and applied those plans on upload
// is gone.
package storage

import (
	"fmt"
	"time"

	"rheem/internal/core/channel"
	"rheem/internal/data"
)

// StoreID identifies a registered storage engine.
type StoreID string

// StoreCost prices a store's accesses for the placement optimizer.
type StoreCost struct {
	ReadFixed      time.Duration
	WriteFixed     time.Duration
	ReadPerByteNS  float64
	WritePerByteNS float64
}

// ReadCost prices reading a volume.
func (c StoreCost) ReadCost(bytes int64) time.Duration {
	return c.ReadFixed + time.Duration(float64(bytes)*c.ReadPerByteNS)
}

// WriteCost prices writing a volume.
func (c StoreCost) WriteCost(bytes int64) time.Duration {
	return c.WriteFixed + time.Duration(float64(bytes)*c.WritePerByteNS)
}

// Stats describes a stored dataset.
type Stats struct {
	Records int64
	Bytes   int64
}

// Store is an execution-level storage engine (x-store).
type Store interface {
	// ID returns the store's unique identifier.
	ID() StoreID
	// Format is the channel format the store hands to processing
	// platforms without conversion.
	Format() channel.Format
	// Cost prices accesses for the placement optimizer.
	Cost() StoreCost
	// Fits reports whether the store can hold the volume.
	Fits(bytes int64) bool
	// Write persists a dataset under a name, replacing any previous
	// version.
	Write(name string, schema *data.Schema, recs []data.Record) error
	// Read loads a dataset.
	Read(name string) (*data.Schema, []data.Record, error)
	// Delete removes a dataset; deleting a missing dataset is an error.
	Delete(name string) error
	// List returns stored dataset names in unspecified order.
	List() []string
	// Stat reports a dataset's size.
	Stat(name string) (Stats, error)
}

// ErrNotFound is returned (wrapped) when a dataset does not exist.
var ErrNotFound = fmt.Errorf("storage: dataset not found")

// Transform is one storage atom: a self-contained transformation of
// data quanta applied during upload.
type Transform struct {
	Name  string
	Apply func(*data.Schema, []data.Record) (*data.Schema, []data.Record, error)
}

// Project returns a storage atom keeping only the named columns — the
// paper's canonical storage-atom example.
func Project(columns ...string) Transform {
	return Transform{
		Name: fmt.Sprintf("project%v", columns),
		Apply: func(s *data.Schema, recs []data.Record) (*data.Schema, []data.Record, error) {
			ns, err := s.Project(columns...)
			if err != nil {
				return nil, nil, err
			}
			idx := make([]int, len(columns))
			for i, c := range columns {
				idx[i] = s.IndexOf(c)
			}
			out := make([]data.Record, len(recs))
			for i, r := range recs {
				out[i] = r.Project(idx...)
			}
			return ns, out, nil
		},
	}
}

// FilterRows returns a storage atom dropping quanta failing the
// predicate at upload time.
func FilterRows(name string, pred func(data.Record) bool) Transform {
	return Transform{
		Name: "filter:" + name,
		Apply: func(s *data.Schema, recs []data.Record) (*data.Schema, []data.Record, error) {
			out := make([]data.Record, 0, len(recs))
			for _, r := range recs {
				if pred(r) {
					out = append(out, r)
				}
			}
			return s, out, nil
		},
	}
}

// SortBy returns a storage atom laying quanta out in column order —
// clustering for downstream range scans.
func SortBy(column string) Transform {
	return Transform{
		Name: "sort:" + column,
		Apply: func(s *data.Schema, recs []data.Record) (*data.Schema, []data.Record, error) {
			col := s.IndexOf(column)
			if col < 0 {
				return nil, nil, fmt.Errorf("storage: sort column %q not in %s", column, s)
			}
			out := data.CloneRecords(recs)
			data.SortRecordsBy(out, func(r data.Record) data.Value { return r.Field(col) })
			return s, out, nil
		},
	}
}

// TransformationPlan is a Cartilage-style upload pipeline: the ordered
// storage atoms applied to raw data as it enters a store.
type TransformationPlan struct {
	Steps []Transform
}

// Run applies the plan's atoms in order.
func (p *TransformationPlan) Run(s *data.Schema, recs []data.Record) (*data.Schema, []data.Record, error) {
	if p == nil {
		return s, recs, nil
	}
	var err error
	for _, step := range p.Steps {
		s, recs, err = step.Apply(s, recs)
		if err != nil {
			return nil, nil, fmt.Errorf("storage: transformation %q: %w", step.Name, err)
		}
	}
	return s, recs, nil
}

// String lists the plan's atoms.
func (p *TransformationPlan) String() string {
	if p == nil || len(p.Steps) == 0 {
		return "identity"
	}
	out := ""
	for i, s := range p.Steps {
		if i > 0 {
			out += " → "
		}
		out += s.Name
	}
	return out
}
