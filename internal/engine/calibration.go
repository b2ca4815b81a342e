package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/optimizer"
)

// Calibration is the parameter set of a calibrated cost backend: the
// PostgreSQL-style cost constants an analytical model needs to mimic a
// target engine's optimizer. The designer's portability pillar rests on
// this file format — calibrate the constants once against a real engine
// (time a sequential scan, a random probe, a tuple of CPU work), save them
// as JSON, and every design algorithm prices against that engine's economy
// without ever connecting to it.
//
// The JSON form mirrors the PostgreSQL GUC names:
//
//	{
//	  "name": "pg-ssd",
//	  "seq_page_cost": 1.0,
//	  "random_page_cost": 1.1,
//	  "cpu_tuple_cost": 0.01,
//	  "cpu_index_tuple_cost": 0.005,
//	  "cpu_operator_cost": 0.0025,
//	  "effective_cache_size_pages": 1048576
//	}
type Calibration struct {
	// Name labels the calibration profile (reported by Describe).
	Name string `json:"name"`

	SeqPageCost       float64 `json:"seq_page_cost"`
	RandomPageCost    float64 `json:"random_page_cost"`
	CPUTupleCost      float64 `json:"cpu_tuple_cost"`
	CPUIndexTupleCost float64 `json:"cpu_index_tuple_cost"`
	CPUOperatorCost   float64 `json:"cpu_operator_cost"`
	// EffectiveCacheSizePages bounds the Mackert–Lohman estimate of repeated
	// page fetches, in pages.
	EffectiveCacheSizePages float64 `json:"effective_cache_size_pages"`
}

// DefaultCalibration is the built-in profile used when no calibration file
// is given: an SSD-era PostgreSQL economy (random I/O barely more expensive
// than sequential, larger cache). It deliberately differs from the native
// backend's spinning-disk defaults so the two backends disagree on absolute
// costs — the portability experiment checks that chosen designs still
// agree.
func DefaultCalibration() *Calibration {
	return &Calibration{
		Name:                    "pg-ssd",
		SeqPageCost:             1.0,
		RandomPageCost:          1.1,
		CPUTupleCost:            0.01,
		CPUIndexTupleCost:       0.005,
		CPUOperatorCost:         0.0025,
		EffectiveCacheSizePages: 1048576, // 8 GiB of 8 KiB pages
	}
}

// Validate rejects non-positive and non-finite constants (a zero page cost
// would make every design free and the advisors degenerate; a NaN one would
// make every comparison false).
func (c *Calibration) Validate() error {
	checks := []struct {
		name string
		v    float64
	}{
		{"seq_page_cost", c.SeqPageCost},
		{"random_page_cost", c.RandomPageCost},
		{"cpu_tuple_cost", c.CPUTupleCost},
		{"cpu_index_tuple_cost", c.CPUIndexTupleCost},
		{"cpu_operator_cost", c.CPUOperatorCost},
		{"effective_cache_size_pages", c.EffectiveCacheSizePages},
	}
	for _, ch := range checks {
		if !(ch.v > 0) || math.IsInf(ch.v, 1) {
			return fmt.Errorf("engine: calibration %q: %s must be positive and finite, got %v", c.Name, ch.name, ch.v)
		}
	}
	return nil
}

// Params converts the calibration to optimizer cost constants.
func (c *Calibration) Params() optimizer.CostParams {
	return optimizer.CostParams{
		SeqPageCost:        c.SeqPageCost,
		RandomPageCost:     c.RandomPageCost,
		CPUTupleCost:       c.CPUTupleCost,
		CPUIndexTupleCost:  c.CPUIndexTupleCost,
		CPUOperatorCost:    c.CPUOperatorCost,
		EffectiveCacheSize: c.EffectiveCacheSizePages,
	}
}

// LoadCalibration reads and validates a calibration JSON file: one object,
// nothing but white space after it. Unknown fields are rejected so a typo'd
// constant name fails loudly instead of silently keeping a default, and so
// is a second object, whose constants would otherwise be dropped unread.
func LoadCalibration(path string) (*Calibration, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("engine: calibration: %w", err)
	}
	c := DefaultCalibration()
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(c); err != nil {
		return nil, fmt.Errorf("engine: calibration %s: %w", path, err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("engine: calibration %s: data after the object", path)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// WriteFile saves the calibration as indented JSON — the starting point
// operators edit after measuring their engine.
func (c *Calibration) WriteFile(path string) error {
	if err := c.Validate(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
