// Package method is the single place where the repository's partitioning
// methods are constructed. Every method the paper evaluates — 1D rowwise
// and columnwise, the 2D fine-grain method of Çatalyürek & Aykanat, the
// Cartesian checkerboard 2D-b, 1D-b of Boman et al., s2D (Algorithm 1),
// the volume-optimal s2D-opt, the latency-bounded s2D-b, and the
// medium-grain s2D-mg of Pelt & Bisseling — registers itself here under
// its paper name, and every consumer (the experiment harness, the
// s2dpart and spmvbench commands, the examples) builds distributions
// through the registry instead of wiring partitioner calls by hand.
//
// Builds run through a memoizing Pipeline that computes shared
// prerequisites — the generated suite matrices, the hypergraph models,
// the column-net row partition, the induced vector partition, and the
// Algorithm 1 distribution — once per (matrix, K, seed) and reuses them
// across methods and tables. When a caller announces the full list of
// power-of-two K values it will sweep (Options.Ks), the pipeline further
// shares one recursive-bisection tree across all of them (see
// partition.PartitionMulti), which roughly halves harness table
// generation time.
package method

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/sparse"
)

// Options carries the knobs shared by every method build.
type Options struct {
	// Seed drives every randomized stage; the same (matrix, K, Seed,
	// Epsilon) always yields the same Build.
	Seed int64
	// Epsilon is the partitioner imbalance tolerance; zero means the
	// partitioner default (0.03).
	Epsilon float64
	// Pipeline memoizes shared prerequisites across builds. Nil uses a
	// private single-build pipeline (no sharing, exact equivalence with
	// the direct constructors).
	Pipeline *Pipeline
	// Ks optionally announces every K value the caller will request for
	// this (matrix, Seed). When all of them are powers of two, row and
	// fine-grain partitions for the whole sweep derive from a single
	// recursive-bisection tree at max(Ks) — same balance bound and
	// per-level quality, a fraction of the cost. Leave nil for builds
	// that must match the direct constructors bit for bit.
	Ks []int
	// ForceKernel names one spmv kernel backend ("scalar" or "reg") to
	// install for every width class instead of autotuning. Empty lets
	// the tuner decide. Only consumed by engine-building layers
	// (spmv.NewTuned, the serve pool); partitioning is unaffected.
	ForceKernel string
}

// Build is the product of a method: the data distribution plus, for
// latency-bounded (routed) variants, the processor mesh their two-hop
// schedule runs on.
type Build struct {
	Method string
	Dist   *distrib.Distribution
	Mesh   *core.Mesh
}

// Routed reports whether the build uses the routed s2D-b schedule.
func (b Build) Routed() bool { return b.Mesh != nil }

// Comm returns the communication statistics of the schedule the build
// actually executes: the routed two-hop statistics when a mesh is
// present, the distribution's direct statistics otherwise.
func (b Build) Comm() distrib.CommStats {
	if b.Mesh != nil {
		return core.S2DBComm(b.Dist, *b.Mesh)
	}
	return b.Dist.Comm()
}

// Method constructs a distribution for a matrix at a part count.
type Method interface {
	Name() string
	Build(a *sparse.CSR, k int, opt Options) (Build, error)
}

// Info describes a registered method for listings, usage messages, and
// the serving API's /v1/methods payload.
type Info struct {
	Name string `json:"name"`
	Desc string `json:"desc,omitempty"`
}

var (
	regMu    sync.RWMutex
	registry = make(map[string]Method)
	regOrder []string
)

func canonical(name string) string { return strings.ToLower(name) }

// Register adds a method to the registry. Names are matched
// case-insensitively ("s2D" and "s2d" are the same method); registering a
// duplicate panics.
func Register(m Method) {
	regMu.Lock()
	defer regMu.Unlock()
	key := canonical(m.Name())
	if _, dup := registry[key]; dup {
		panic(fmt.Sprintf("method: duplicate registration of %q", m.Name()))
	}
	registry[key] = m
	regOrder = append(regOrder, key)
}

// Get looks a method up by name, case-insensitively.
func Get(name string) (Method, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	m, ok := registry[canonical(name)]
	return m, ok
}

// Names returns the canonical names of every registered method in
// registration order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(regOrder))
	for _, key := range regOrder {
		out = append(out, registry[key].Name())
	}
	return out
}

// List returns name and description of every registered method in
// registration order.
func List() []Info {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Info, 0, len(regOrder))
	for _, key := range regOrder {
		m := registry[key]
		info := Info{Name: m.Name()}
		if d, ok := m.(interface{ Description() string }); ok {
			info.Desc = d.Description()
		}
		out = append(out, info)
	}
	return out
}

// BuildByName builds the named method, or returns an error naming every
// registered method when the name is unknown.
func BuildByName(name string, a *sparse.CSR, k int, opt Options) (Build, error) {
	m, ok := Get(name)
	if !ok {
		known := Names()
		sort.Strings(known)
		return Build{}, fmt.Errorf("unknown method %q (registered: %s)",
			name, strings.Join(known, ", "))
	}
	return m.Build(a, k, opt)
}
