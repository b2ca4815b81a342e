package livedb

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"repro/internal/engine"
)

// sqlCostSettings reads the planner cost constants the live optimizer
// itself prices with. effective_cache_size's setting is already in 8kB
// pages. ORDER BY keeps recorded traces deterministic.
const sqlCostSettings = "SELECT name, setting FROM pg_settings WHERE name IN " +
	"('seq_page_cost','random_page_cost','cpu_tuple_cost','cpu_index_tuple_cost'," +
	"'cpu_operator_cost','effective_cache_size') ORDER BY name"

// FitCalibration builds the calibrated-model cost constants for a live
// server by reading pg_settings — the designer then prices plans with the
// same constants the server's planner uses, which is what makes EXPLAIN
// cross-checks meaningful.
func FitCalibration(ctx context.Context, db *DB, snap *Snapshot) (*engine.Calibration, error) {
	res, err := db.Query(ctx, sqlCostSettings)
	if err != nil {
		return nil, fmt.Errorf("livedb: fit calibration: %w", err)
	}
	cal := engine.DefaultCalibration()
	cal.Name = "live"
	if snap != nil && snap.Database != "" {
		cal.Name = "live:" + snap.Database
	}
	for _, r := range res.Rows {
		if len(r) < 2 {
			continue
		}
		v, err := strconv.ParseFloat(r[1], 64)
		if err != nil || !(v > 0) || math.IsInf(v, 1) {
			continue // keep the default, as for a setting the server lacks
		}
		switch r[0] {
		case "seq_page_cost":
			cal.SeqPageCost = v
		case "random_page_cost":
			cal.RandomPageCost = v
		case "cpu_tuple_cost":
			cal.CPUTupleCost = v
		case "cpu_index_tuple_cost":
			cal.CPUIndexTupleCost = v
		case "cpu_operator_cost":
			cal.CPUOperatorCost = v
		case "effective_cache_size":
			cal.EffectiveCacheSizePages = v
		}
	}
	if err := cal.Validate(); err != nil {
		return nil, fmt.Errorf("livedb: fit calibration: %w", err)
	}
	return cal, nil
}
