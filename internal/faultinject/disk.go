package faultinject

import (
	"fmt"

	"multisite/internal/diskcache"
)

// DiskPlan is a deterministic schedule of disk faults, consumed one step
// per physical cache or journal operation, so the recovery code in
// internal/diskcache and internal/jobs can be driven through its torn-
// write, failed-read and torn-rename branches. A nil *DiskPlan passes
// everything. Safe for concurrent use.
//
// A step that does not apply to the operation drawing it (an eio step
// drawn by a write, a shortwrite step drawn by a read) passes, because
// each operation acts only on its own fault: plans are written against
// one operation kind at a time ("shortwrite,pass,repeat" against writes,
// "eio,repeat" against reads), which keeps schedules readable and the
// consumed-step accounting obvious.
type DiskPlan schedule[diskcache.Fault]

// diskFaults names each disk fault in ParseDiskPlan syntax.
var diskFaults = [...]string{
	diskcache.FaultNone:       "pass",
	diskcache.FaultShortWrite: "shortwrite",
	diskcache.FaultReadErr:    "eio",
	diskcache.FaultTornRename: "torn",
}

// ParseDiskPlan parses a comma-separated schedule of "pass",
// "shortwrite", "eio", or "torn"; a trailing "repeat" element makes the
// schedule cycle. Example: "shortwrite,pass,eio,repeat".
func ParseDiskPlan(s string) (*DiskPlan, error) {
	sc, err := parseSchedule(s, func(word string) (diskcache.Fault, error) {
		for f, name := range diskFaults {
			if word == name {
				return diskcache.Fault(f), nil
			}
		}
		return 0, fmt.Errorf("faultinject: unknown disk step %q (want pass, shortwrite, eio, torn, repeat)", word)
	})
	return (*DiskPlan)(sc), err
}

// Inject consumes the next step as the fault for one physical
// operation; it is the hook diskcache.Options.Inject and
// jobs.Options.Inject take.
func (p *DiskPlan) Inject(diskcache.Op) diskcache.Fault {
	return (*schedule[diskcache.Fault])(p).draw()
}

// String renders the schedule in ParseDiskPlan syntax.
func (p *DiskPlan) String() string {
	return (*schedule[diskcache.Fault])(p).format(func(f diskcache.Fault) string { return diskFaults[f] })
}
