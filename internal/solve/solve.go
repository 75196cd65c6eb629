// Package solve unifies the repository's optimizer backends behind one
// pluggable Solver API. The paper's evaluation (Section 7) rests on
// comparing three algorithms — the two-step greedy heuristic (Section 6),
// the exact branch-and-bound optimum, and the rectangle bin-packing
// baseline of [7] — and before this package each lived behind its own
// incompatible entry point, so every comparison hand-wired its own
// plumbing. A Solver is a Step 1 strategy: it designs the channel-group
// architecture, and every backend's design then flows through the same
// Step 2 redistribution and throughput scoring (core.BuildResult), so
// results are shaped identically and directly comparable.
//
// Backends register themselves in a process-global registry under a
// stable name; "heuristic" is the default and is what core.Optimize runs.
// The registry is what lets solver identity thread through every layer
// above — engine jobs and memo keys, the serving layer's cache keys and
// its GET /v1/solvers and POST /v1/compare endpoints, and the CLI
// -solver flags — without any of them importing the backend packages.
package solve

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"multisite/internal/core"
	"multisite/internal/soc"
)

// DefaultName is the backend used when no solver is named: the paper's
// two-step greedy heuristic.
const DefaultName = "heuristic"

// Info is a backend's self-description, served by GET /v1/solvers and the
// CLIs' -list-solvers.
type Info struct {
	// Name is the registry key.
	Name string `json:"name"`
	// Description is a one-line summary of the algorithm.
	Description string `json:"description"`
	// Complexity sketches the asymptotic cost in the testable module
	// count m (e.g. "greedy, ~O(m² log m)" or "Bell(m) partitions").
	Complexity string `json:"complexity"`
	// Exact reports whether the backend proves Step 1 optimality.
	Exact bool `json:"exact"`
	// MaxModules is the largest testable-module count the backend
	// accepts; 0 means unbounded.
	MaxModules int `json:"max_modules,omitempty"`
}

// Solver is one Step 1 strategy served through the registry. Solve designs
// the SOC's channel-group architecture for cfg.ATE and returns it evaluated
// through the shared Step 2 pipeline (core.BuildResult), so Results from
// different backends are interchangeable everywhere a core.Result flows:
// Rescore, snapshots, the engine memo, the serving layer.
//
// Implementations must be stateless and safe for concurrent use, must
// honor ctx (a cancelled Solve returns the context's error and no partial
// result), and must be deterministic: equal inputs produce equal Results,
// byte-identical once serialized — the engine memo and the content-
// addressed result cache both assume it.
type Solver interface {
	// Name returns the registry key (stable, lower-case).
	Name() string
	// Info returns the backend's self-description.
	Info() Info
	// Solve designs and evaluates the SOC under the configuration.
	Solve(ctx context.Context, s *soc.SOC, cfg core.Config) (*core.Result, error)
}

var (
	mu       sync.RWMutex
	registry = make(map[string]Solver)
)

// Register adds a backend under its Name. It panics on an empty name or a
// duplicate registration — backend wiring is a process-construction-time
// concern, not a runtime condition.
func Register(s Solver) {
	name := s.Name()
	if name == "" {
		panic("solve: Register with empty solver name")
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("solve: duplicate solver %q", name))
	}
	registry[name] = s
}

// Get returns the backend registered under name; the empty string selects
// DefaultName. Unknown names error with the valid names listed, so CLI
// flags and HTTP fields surface the full menu on a typo.
func Get(name string) (Solver, error) {
	if name == "" {
		name = DefaultName
	}
	mu.RLock()
	s, ok := registry[name]
	mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("solve: unknown solver %q (valid: %s)", name, strings.Join(Names(), ", "))
	}
	return s, nil
}

// Names returns the registered backend names, sorted.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Infos returns every registered backend's Info, sorted by name — the
// single source GET /v1/solvers and the CLIs' -list-solvers render.
func Infos() []Info {
	mu.RLock()
	defer mu.RUnlock()
	infos := make([]Info, 0, len(registry))
	for _, s := range registry {
		infos = append(infos, s.Info())
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// Solve resolves name (empty means the default heuristic) and runs it —
// the one-call form for callers that do not hold a Solver.
func Solve(ctx context.Context, name string, s *soc.SOC, cfg core.Config) (*core.Result, error) {
	sv, err := Get(name)
	if err != nil {
		return nil, err
	}
	return sv.Solve(ctx, s, cfg)
}
