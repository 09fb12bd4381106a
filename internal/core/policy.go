package core

// This file is the pluggable policy pipeline: the five seam interfaces a
// memory-manager policy is composed of, the name-keyed registry that maps
// policy names (wire and display) to their composition, and the default
// component implementations that re-express the four paper managers
// through the seams. The System hot paths dispatch exclusively through
// the interfaces; components are boxed once at NewSystem so steady-state
// dispatch allocates nothing (pinned by AllocsPerRun guards).
//
// Identity contract: a policy's display Name is what Options.Policy's
// String() returns, and that string feeds the ConfigDigest (the digest
// hashes Options with %+v, which invokes String). The four built-in names
// are therefore frozen — changing one would silently re-key every stored
// result — and a third-party policy's distinct name automatically gives
// its runs a distinct digest identity.

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/vmem"
)

// ErrUnknownPolicy is returned (wrapped, with the offending name) when a
// policy name or id has no registration.
var ErrUnknownPolicy = errors.New("core: unknown policy")

// ---- seam interfaces ----

// PlacementPolicy decides allocation placement granularity: whether a
// chunk of a virtual allocation should be backed by one whole 2MB frame
// (true) or filled with base pages (false). fullRegion reports whether
// the chunk covers an entire aligned 2MB region. The decision only
// applies when the allocator can hand out whole frames (CoCoA).
type PlacementPolicy interface {
	// WholeFrame reports whether to back the current chunk with a whole
	// large frame.
	WholeFrame(fullRegion bool) bool
}

// CoalescePolicy decides large-page promotion and compaction behavior.
type CoalescePolicy interface {
	// Promote reports whether fully-populated regions are considered for
	// promotion to a large page at all.
	Promote() bool
	// MigrateOnPromote reports whether promotion migrates the base pages
	// into a fresh frame first (the conventional coalescer of Fig. 6a)
	// instead of flipping PTE bits in place.
	MigrateOnPromote() bool
	// FlushOnPromote reports whether a successful promotion must be
	// followed by a full TLB flush.
	FlushOnPromote() bool
	// CompactionEnabled reports whether CAC may splinter-and-compact
	// shrunk regions and recover frames under allocation pressure.
	CompactionEnabled() bool
}

// FillPolicy decides translation and demand-paging fill granularity.
type FillPolicy interface {
	// Bypass reports whether every translation is treated as an L1 TLB
	// hit (the Ideal-TLB upper bound).
	Bypass() bool
	// LargeFill reports whether demand paging transfers whole 2MB pages
	// (and tracks residency at large-page granularity) instead of 4KB.
	LargeFill() bool
}

// CostModel prices a one-page data migration (CAC and the migrating
// coalescer ablation). Implementations must be side-effect-free beyond
// the DRAM calls they choose to make: the ideal model makes none.
type CostModel interface {
	// CopyPage performs (or models) one base-page copy at cycle now and
	// returns the completion cycle plus whether an in-DRAM bulk copy was
	// used. A zero-cost model returns (now, false) without touching mem.
	CopyPage(now uint64, mem *dram.DRAM, src, dst vmem.PhysAddr) (fin uint64, bulk bool)
	// Stalls reports whether migrations stall the GPU until the last
	// copy completes (the paper's conservative §5 model).
	Stalls() bool
}

// ResidencyPolicy orders resident pages for victim selection under a
// bounded GPU page pool. The pager calls Insert when a page becomes
// resident, Touch on every access to a resident page, Remove when a page
// leaves residency (eviction or free), and Victim to pick the next page
// to evict. Implementations must be deterministic and must tolerate
// Remove on entries that were never inserted.
//
// Snapshot/fork contract: Clone must return an independent copy whose
// victim order is identical to the source's, with every tracked entry
// translated through remap (entries are duplicated by the pager clone;
// remap resolves a source entry to its copy). A policy that keeps no
// per-entry state still must preserve order. Implementations are boxed
// once at pager construction, so Touch/Victim must not allocate — the
// difftest AllocsPerRun guards enforce this.
type ResidencyPolicy interface {
	// Insert adds a newly resident entry.
	Insert(e *PageEntry)
	// Touch records an access to a resident entry.
	Touch(e *PageEntry)
	// Remove drops an entry (tolerates entries not currently tracked).
	Remove(e *PageEntry)
	// Victim returns the next eviction candidate, or nil when nothing is
	// tracked. The pager removes the victim itself (via Remove).
	Victim() *PageEntry
	// Clone deep-copies the policy state for a forked pager, translating
	// each tracked entry through remap.
	Clone(remap func(*PageEntry) *PageEntry) ResidencyPolicy
}

// Components is one policy's composition across the five seams. Nil
// fields are filled from DefaultComponents at System construction.
type Components struct {
	// Placement decides whole-frame vs base-page backing.
	Placement PlacementPolicy
	// Coalesce decides promotion and compaction.
	Coalesce CoalescePolicy
	// Fill decides translation bypass and paging granularity.
	Fill FillPolicy
	// Cost prices page migrations.
	Cost CostModel
	// Residency constructs the victim-selection state for a bounded
	// page pool; called once per bounded pager (factory, because the policy
	// holds mutable per-run state).
	Residency func() ResidencyPolicy
}

// fill replaces nil fields with the option-derived defaults.
func (c Components) fill(opt Options) Components {
	d := DefaultComponents(opt)
	if c.Placement == nil {
		c.Placement = d.Placement
	}
	if c.Coalesce == nil {
		c.Coalesce = d.Coalesce
	}
	if c.Fill == nil {
		c.Fill = d.Fill
	}
	if c.Cost == nil {
		c.Cost = d.Cost
	}
	if c.Residency == nil {
		c.Residency = d.Residency
	}
	return c
}

// ---- default (option-derived) components ----

// DefaultComponents derives the component set the Options knobs describe
// — exactly the behavior the four paper managers had when these decisions
// were inline branches. Custom policies can take the defaults for most
// seams and override the one they change.
func DefaultComponents(opt Options) Components {
	var cost CostModel
	switch opt.CAC {
	case CACIdeal:
		cost = idealCost{}
	case CACBulkCopy:
		cost = bulkCost{}
	default:
		cost = narrowCost{}
	}
	return Components{
		Placement: optPlacement{largeFault: opt.Fault == FaultLarge},
		Coalesce: optCoalesce{
			mode:    opt.Coalesce,
			flush:   opt.FlushOnCoalesce,
			compact: opt.CAC != CACOff,
		},
		Fill:      optFill{bypass: opt.Bypass, large: opt.Fault == FaultLarge},
		Cost:      cost,
		Residency: NewLRUResidency,
	}
}

// optPlacement is the option-derived placement rule: whole frames for
// fully covered regions, and for everything under 2MB-only fill.
type optPlacement struct{ largeFault bool }

// WholeFrame implements PlacementPolicy.
func (p optPlacement) WholeFrame(fullRegion bool) bool { return fullRegion || p.largeFault }

// optCoalesce is the option-derived coalesce/compaction rule.
type optCoalesce struct {
	mode    CoalesceMode
	flush   bool
	compact bool
}

// Promote implements CoalescePolicy.
func (c optCoalesce) Promote() bool { return c.mode != CoalesceOff }

// MigrateOnPromote implements CoalescePolicy.
func (c optCoalesce) MigrateOnPromote() bool { return c.mode == CoalesceMigrate }

// FlushOnPromote implements CoalescePolicy.
func (c optCoalesce) FlushOnPromote() bool { return c.flush || c.mode == CoalesceMigrate }

// CompactionEnabled implements CoalescePolicy.
func (c optCoalesce) CompactionEnabled() bool { return c.compact }

// optFill is the option-derived fill rule.
type optFill struct{ bypass, large bool }

// Bypass implements FillPolicy.
func (f optFill) Bypass() bool { return f.bypass }

// LargeFill implements FillPolicy.
func (f optFill) LargeFill() bool { return f.large }

// narrowCost copies pages over the narrow 64-bit/cycle channel interface
// (baseline CAC) and stalls the GPU.
type narrowCost struct{}

// CopyPage implements CostModel.
func (narrowCost) CopyPage(now uint64, mem *dram.DRAM, src, dst vmem.PhysAddr) (uint64, bool) {
	return mem.CopyPageNarrow(now, src, dst), false
}

// Stalls implements CostModel.
func (narrowCost) Stalls() bool { return true }

// bulkCost uses the in-DRAM bulk copy (RowClone/LISA) when source and
// destination share a channel, falling back to the narrow copy.
type bulkCost struct{}

// CopyPage implements CostModel.
func (bulkCost) CopyPage(now uint64, mem *dram.DRAM, src, dst vmem.PhysAddr) (uint64, bool) {
	if fin, err := mem.CopyPageBulk(now, src, dst); err == nil {
		return fin, true
	}
	return mem.CopyPageNarrow(now, src, dst), false
}

// Stalls implements CostModel.
func (bulkCost) Stalls() bool { return true }

// idealCost is the zero-cost compaction upper bound: no data movement is
// modeled and the GPU never stalls.
type idealCost struct{}

// CopyPage implements CostModel.
func (idealCost) CopyPage(now uint64, _ *dram.DRAM, _, _ vmem.PhysAddr) (uint64, bool) {
	return now, false
}

// Stalls implements CostModel.
func (idealCost) Stalls() bool { return false }

// ---- residency building blocks ----

// ResidencyQueue is an intrusive doubly linked list of PageEntry values,
// the building block residency policies order victims with (entries carry
// their own links, so queue operations never allocate). The zero value is
// ready to use; a queue must not be copied after first use.
type ResidencyQueue struct {
	sent PageEntry
}

func (q *ResidencyQueue) lazyInit() {
	if q.sent.next == nil {
		q.sent.next = &q.sent
		q.sent.prev = &q.sent
	}
}

// PushFront links e at the front of the queue.
func (q *ResidencyQueue) PushFront(e *PageEntry) {
	q.lazyInit()
	e.prev = &q.sent
	e.next = q.sent.next
	e.prev.next = e
	e.next.prev = e
}

// PushBack links e at the back of the queue.
func (q *ResidencyQueue) PushBack(e *PageEntry) {
	q.lazyInit()
	e.next = &q.sent
	e.prev = q.sent.prev
	e.prev.next = e
	e.next.prev = e
}

// Remove unlinks e; entries that are not linked are ignored.
func (q *ResidencyQueue) Remove(e *PageEntry) {
	if e.prev == nil {
		return
	}
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

// Front returns the first entry, or nil when the queue is empty.
func (q *ResidencyQueue) Front() *PageEntry {
	q.lazyInit()
	if q.sent.next == &q.sent {
		return nil
	}
	return q.sent.next
}

// Back returns the last entry, or nil when the queue is empty.
func (q *ResidencyQueue) Back() *PageEntry {
	q.lazyInit()
	if q.sent.prev == &q.sent {
		return nil
	}
	return q.sent.prev
}

// Next returns the entry after e, or nil at the end of the queue.
func (q *ResidencyQueue) Next(e *PageEntry) *PageEntry {
	if e.next == nil || e.next == &q.sent {
		return nil
	}
	return e.next
}

// lruResidency is the default victim order: least recently used. MRU at
// the queue front, victim at the back.
type lruResidency struct{ q ResidencyQueue }

// NewLRUResidency returns the default least-recently-used residency
// policy (victim = least recently touched resident page).
func NewLRUResidency() ResidencyPolicy { return &lruResidency{} }

// Insert implements ResidencyPolicy.
func (l *lruResidency) Insert(e *PageEntry) { l.q.PushFront(e) }

// Touch implements ResidencyPolicy.
func (l *lruResidency) Touch(e *PageEntry) {
	l.q.Remove(e)
	l.q.PushFront(e)
}

// Remove implements ResidencyPolicy.
func (l *lruResidency) Remove(e *PageEntry) { l.q.Remove(e) }

// Victim implements ResidencyPolicy.
func (l *lruResidency) Victim() *PageEntry { return l.q.Back() }

// Clone implements ResidencyPolicy: the copy preserves recency order by
// walking MRU to LRU and appending each remapped entry at the tail.
func (l *lruResidency) Clone(remap func(*PageEntry) *PageEntry) ResidencyPolicy {
	nl := &lruResidency{}
	for e := l.q.Front(); e != nil; e = l.q.Next(e) {
		nl.q.PushBack(remap(e))
	}
	return nl
}

// ---- registry ----

// PolicySpec describes one registered memory-manager policy.
type PolicySpec struct {
	// Name is the display name — the value Policy.String() returns, the
	// Policy field of exported RunRecords, and (via Options' %+v hash)
	// part of every ConfigDigest. It must be unique and must never change
	// once results have been recorded under it.
	Name string
	// Wire is the flag/API name (-policy values, RunRequest.Policy).
	// Unique, conventionally lowercase.
	Wire string
	// Options derives the manager option set under a configuration. The
	// registry stamps the returned Options' Policy field; implementations
	// leave it zero.
	Options func(cfg config.Config) Options
	// Components optionally overrides seam components (nil fields fall
	// back to the option-derived defaults). A nil Components means all
	// defaults.
	Components func(opt Options, cfg config.Config) Components
}

var policyReg = struct {
	sync.RWMutex
	specs  []PolicySpec
	byWire map[string]Policy
	byName map[string]Policy
}{
	byWire: make(map[string]Policy),
	byName: make(map[string]Policy),
}

// RegisterPolicy adds a policy to the registry and returns its id. It
// fails on a duplicate display or wire name and on a spec without an
// Options function. Registration is typically done from an init function
// or a package-level variable; ids are assigned in registration order,
// so a given build resolves a given name to the same id every run.
func RegisterPolicy(spec PolicySpec) (Policy, error) {
	if spec.Name == "" || spec.Wire == "" {
		return 0, errors.New("core: policy spec needs both Name and Wire")
	}
	if spec.Options == nil {
		return 0, errors.New("core: policy spec needs an Options function")
	}
	policyReg.Lock()
	defer policyReg.Unlock()
	if _, dup := policyReg.byName[spec.Name]; dup {
		return 0, fmt.Errorf("core: policy name %q already registered", spec.Name)
	}
	if _, dup := policyReg.byWire[spec.Wire]; dup {
		return 0, fmt.Errorf("core: policy wire name %q already registered", spec.Wire)
	}
	p := Policy(len(policyReg.specs))
	policyReg.specs = append(policyReg.specs, spec)
	policyReg.byName[spec.Name] = p
	policyReg.byWire[spec.Wire] = p
	return p, nil
}

// MustRegisterPolicy is RegisterPolicy, panicking on error — for use in
// package init blocks.
func MustRegisterPolicy(spec PolicySpec) Policy {
	p, err := RegisterPolicy(spec)
	if err != nil {
		panic(err)
	}
	return p
}

// LookupPolicy returns the registered spec for an id.
func LookupPolicy(p Policy) (PolicySpec, bool) {
	policyReg.RLock()
	defer policyReg.RUnlock()
	if p < 0 || int(p) >= len(policyReg.specs) {
		return PolicySpec{}, false
	}
	return policyReg.specs[p], true
}

// ParsePolicy resolves a wire name (a -policy flag or RunRequest.Policy
// value) to its policy id. Unknown names return an error wrapping
// ErrUnknownPolicy.
func ParsePolicy(wire string) (Policy, error) {
	policyReg.RLock()
	defer policyReg.RUnlock()
	if p, ok := policyReg.byWire[wire]; ok {
		return p, nil
	}
	return 0, fmt.Errorf("%w %q (known: %s)", ErrUnknownPolicy, wire, knownWiresLocked())
}

// knownWiresLocked renders the registered wire names for error messages;
// callers hold at least the read lock.
func knownWiresLocked() string {
	names := make([]string, 0, len(policyReg.byWire))
	for w := range policyReg.byWire {
		names = append(names, w)
	}
	sort.Strings(names)
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}

// PolicyNames returns the registered wire names in registration order
// (the four paper managers first, third-party policies after).
func PolicyNames() []string {
	policyReg.RLock()
	defer policyReg.RUnlock()
	names := make([]string, len(policyReg.specs))
	for i, s := range policyReg.specs {
		names[i] = s.Wire
	}
	return names
}

// ResolveOptions derives the manager Options a registered policy uses
// under cfg, with the Policy id stamped. Unknown ids return an error
// wrapping ErrUnknownPolicy.
func ResolveOptions(p Policy, cfg config.Config) (Options, error) {
	spec, ok := LookupPolicy(p)
	if !ok {
		return Options{}, fmt.Errorf("%w id %d", ErrUnknownPolicy, int(p))
	}
	o := spec.Options(cfg)
	o.Policy = p
	return o, nil
}

// componentsFor composes the seam components for a manager: the policy's
// overrides (when registered and provided) over the option-derived
// defaults. Options mutated after resolution (ablations via
// MutateManager) flow into the defaults, so knob tweaks keep working for
// registry policies too.
func componentsFor(opt Options, cfg config.Config) Components {
	spec, ok := LookupPolicy(opt.Policy)
	if ok && spec.Components != nil {
		return spec.Components(opt, cfg).fill(opt)
	}
	return Components{}.fill(opt)
}

// ---- built-in registrations ----

// The four paper managers register at ids 0–3, matching the Policy
// constants; init asserts the correspondence so the constants stay valid
// (and mosaic.go can keep re-exporting them as constants).
func init() {
	for _, b := range []struct {
		p    Policy
		spec PolicySpec
	}{
		{GPUMMU4K, PolicySpec{Name: "GPU-MMU", Wire: "gpummu", Options: gpummu4kOptions}},
		{GPUMMU2M, PolicySpec{Name: "GPU-MMU-2MB", Wire: "gpummu-2mb", Options: gpummu2mOptions}},
		{Mosaic, PolicySpec{Name: "Mosaic", Wire: "mosaic", Options: mosaicOptions}},
		{IdealTLB, PolicySpec{Name: "Ideal-TLB", Wire: "ideal", Options: idealOptions}},
	} {
		got := MustRegisterPolicy(b.spec)
		if got != b.p {
			panic(fmt.Sprintf("core: built-in policy %q registered as id %d, want %d", b.spec.Name, got, b.p))
		}
	}
}

func gpummu4kOptions(cfg config.Config) Options {
	return Options{
		CACThreshold: cfg.CACOccupancyThreshold,
		Allocator:    AllocBaseline,
		Coalesce:     CoalesceOff,
		CAC:          CACOff,
		Fault:        FaultBase,
	}
}

func gpummu2mOptions(cfg config.Config) Options {
	return Options{
		CACThreshold: cfg.CACOccupancyThreshold,
		Allocator:    AllocCoCoA, // 2MB-only management needs whole frames
		Coalesce:     CoalesceInPlace,
		CAC:          CACOff,
		Fault:        FaultLarge,
	}
}

func mosaicOptions(cfg config.Config) Options {
	o := Options{
		CACThreshold: cfg.CACOccupancyThreshold,
		Allocator:    AllocCoCoA,
		Coalesce:     CoalesceInPlace,
		CAC:          CACOn,
		Fault:        FaultBase,
	}
	if cfg.CACUseBulkCopy {
		o.CAC = CACBulkCopy
	}
	return o
}

func idealOptions(cfg config.Config) Options {
	o := mosaicOptions(cfg)
	o.CAC = CACOn // the ideal TLB does not inherit the CAC-BC knob switch
	o.Bypass = true
	return o
}
