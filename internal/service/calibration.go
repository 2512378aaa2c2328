// Calibration persistence: the shared cost calibrator's state, saved
// to the state directory after every finished job and rehydrated in
// New — the learning loop survives restarts the same way run profiles
// do. The file is the calibrator's JSON document, byte for byte the
// body of GET /calibration; the calibrator checks it on the way in
// (cost.Calibrator.UnmarshalJSON). A calibration.bin an older build
// wrote is ignored.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"

	"rheem/internal/core/cost"
	"rheem/internal/storage/blob"
)

// calibrationFile names the persisted calibration state.
const calibrationFile = "calibration.json"

// loadCalibration rehydrates cal from the directory's persisted state,
// if any. It runs before cal is shared, so it fills it in place. A
// missing file is a cold start, not an error; a present but corrupt
// file fails the load loudly — silently discarding learned state would
// look like a regression in every plan choice.
func loadCalibration(dir *blob.Dir, cal *cost.Calibrator) error {
	raw, err := dir.Get(calibrationFile)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, cal); err != nil {
		return fmt.Errorf("%s: %w", calibrationFile, err)
	}
	return nil
}

// saveCalibration persists the calibrator after a job folded into it.
// Best-effort like profile persistence: a full or failing disk must
// not fail the job that triggered the save — the in-memory calibrator
// keeps serving, and the next job retries the write. Saves are serialised,
// the state encoded inside: jobs finish on their own goroutines, and a
// save that encoded before a later job's fold must not land after — or
// into — that job's save and leave the file a fold behind.
func (s *Service) saveCalibration() {
	if s.cal == nil || s.state == nil {
		return
	}
	s.calSave.Lock()
	defer s.calSave.Unlock()
	b, err := json.MarshalIndent(s.cal, "", "  ")
	if err != nil {
		return
	}
	_ = s.state.Put(calibrationFile, append(b, '\n'))
}
