package sdk

import (
	"encoding/json"
	"fmt"

	"sgxperf/internal/edl"
)

// SwitchlessConfig selects which interface functions run switchless and
// bounds the self-tuning scheduler. The static analyzer emits one from
// its Transition-Bound Calls findings (Source "staticlint"), closing the
// paper's find→optimise→re-measure loop; hand-written configurations
// work the same way.
type SwitchlessConfig struct {
	// Source records who produced the configuration ("staticlint",
	// "manual", ...), so measurements can prove their provenance.
	Source string `json:"source"`
	// Ecalls and Ocalls are the function names routed through the
	// switchless queues. Names SwitchlessEligible rejects are ignored.
	Ecalls []string `json:"ecalls"`
	Ocalls []string `json:"ocalls,omitempty"`
	// MinWorkers and MaxWorkers bound each pool; the scheduler starts at
	// MinWorkers and never grows past MaxWorkers (or the free TCSs, for
	// the trusted pool). It runs only when MaxWorkers exceeds MinWorkers:
	// equal bounds make a fixed pool. MinWorkers defaults to 1, and a
	// MaxWorkers below it to the larger of MinWorkers and 8.
	MinWorkers int `json:"min_workers"`
	MaxWorkers int `json:"max_workers"`
	// QueueDepth bounds in-flight requests per worker queue: 8 by
	// default, at most 4096. When every worker's queue is full the call
	// falls back to the regular transition path.
	QueueDepth int `json:"queue_depth"`
	// EpochCalls is the scheduler period: every EpochCalls-th submission
	// to a pool runs one scaling decision.
	EpochCalls int `json:"epoch_calls"`
}

// maxSwitchlessQueueDepth is the largest QueueDepth accepted. Every
// worker's queue is allocated at that capacity when the worker starts,
// so an unbounded value from a hand-written file could exhaust memory.
const maxSwitchlessQueueDepth = 4096

// SwitchlessEligible reports whether f may run on a switchless worker at
// all: a public ecall, or an ocall that allows no ecalls and is not an
// SDK sync ocall. Private ecalls need an in-flight ocall context, which
// a parked worker never has; allow-listed ocalls may re-enter the
// enclave and sync ocalls block on the caller's identity, so neither
// can run on a detached worker.
func SwitchlessEligible(f *edl.Func) bool {
	if f.Kind == edl.Ecall {
		return f.Public
	}
	return len(f.Allow) == 0 && !IsSyncOcall(f.Name)
}

// normalize fills unset fields with the runtime defaults and rejects a
// configuration the runtime cannot honour.
func (c SwitchlessConfig) normalize() (SwitchlessConfig, error) {
	if c.QueueDepth > maxSwitchlessQueueDepth {
		return c, fmt.Errorf("sdk: switchless config: queue_depth %d exceeds %d",
			c.QueueDepth, maxSwitchlessQueueDepth)
	}
	if c.MinWorkers <= 0 {
		c.MinWorkers = 1
	}
	if c.MaxWorkers < c.MinWorkers {
		c.MaxWorkers = max(c.MinWorkers, 8)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.EpochCalls <= 0 {
		c.EpochCalls = 64
	}
	return c, nil
}

// tuned reports whether the scheduler resizes the pools.
func (c SwitchlessConfig) tuned() bool { return c.MaxWorkers > c.MinWorkers }

// JSON renders the configuration as indented JSON.
func (c SwitchlessConfig) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("sdk: switchless config: %w", err)
	}
	return append(b, '\n'), nil
}

// ParseSwitchlessConfig parses a configuration produced by JSON (or by
// `sgx-perf-lint -switchless-config`) and checks it as StartSwitchless
// will. The result is the configuration as written: unset fields take
// their defaults when the runtime starts.
func ParseSwitchlessConfig(b []byte) (*SwitchlessConfig, error) {
	var c SwitchlessConfig
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("sdk: switchless config: %w", err)
	}
	if _, err := c.normalize(); err != nil {
		return nil, err
	}
	return &c, nil
}
