// Calibration persistence: the shared cost calibrator's state, saved
// through the storage layer after every finished job and rehydrated in
// New — the learning loop survives restarts the same way run profiles
// do. The calibrator's binary codec is versioned and decode-hardened
// (cost.DecodeCalibrator); stores may serialize datasets as text (the
// CSV store does), so the bytes travel base64-encoded in a single
// string quantum.
package service

import (
	"encoding/base64"
	"fmt"

	"rheem/internal/core/cost"
	"rheem/internal/data"
	"rheem/internal/storage"
)

// calibrationDataset names the persisted calibration state.
const calibrationDataset = "calibration"

// calibrationSchema is the one-column storage schema the state is
// written under: base64 of the versioned binary encoding.
var calibrationSchema = data.MustSchema(data.Field{Name: "state", Type: data.KindString})

// loadCalibration rehydrates cal from the store's persisted state, if
// any. A missing dataset is a cold start, not an error; a present but
// corrupt dataset fails the load loudly — silently discarding learned
// state would look like a regression in every plan choice.
func loadCalibration(store *storage.Manager, cal *cost.Calibrator) error {
	store.Adopt()
	found := false
	for _, ds := range store.Datasets() {
		if ds == calibrationDataset {
			found = true
			break
		}
	}
	if !found {
		return nil
	}
	_, recs, err := store.Get(calibrationDataset)
	if err != nil {
		return err
	}
	if len(recs) != 1 {
		return fmt.Errorf("calibration dataset has %d quanta, want 1", len(recs))
	}
	raw, err := base64.StdEncoding.DecodeString(recs[0].Field(0).Str())
	if err != nil {
		return fmt.Errorf("calibration dataset is not base64: %w", err)
	}
	decoded, err := cost.DecodeCalibrator(raw)
	if err != nil {
		return err
	}
	cal.Replace(decoded)
	return nil
}

// saveCalibration persists the calibrator after a job folded into it.
// Best-effort like profile persistence: a full or failing store must
// not fail the job that triggered the save — the in-memory calibrator
// keeps serving, and the next job retries the write. Saves are serialised,
// the state encoded inside: jobs finish on their own goroutines, and a
// save that encoded before a later job's fold must not land after — or
// into — that job's save and leave the store a fold behind.
func (s *Service) saveCalibration() {
	if s.cal == nil || s.cfg.CalibrationStore == nil {
		return
	}
	s.calSave.Lock()
	defer s.calSave.Unlock()
	state := base64.StdEncoding.EncodeToString(s.cal.Encode())
	_, _ = s.cfg.CalibrationStore.Put(storage.PutRequest{
		Dataset: calibrationDataset,
		Schema:  calibrationSchema,
		Records: []data.Record{data.NewRecord(data.Str(state))},
	})
}
