package relation

import (
	"sync/atomic"

	"relcomplete/internal/fault"
	"relcomplete/internal/obs"
)

// metrics is the package-wide observability hook. Instances are
// created ubiquitously and threading a per-instance metrics reference
// through every constructor would bloat the relational substrate's
// API, so the index instrumentation reports to one process-global
// *obs.Metrics instead. An atomic pointer keeps concurrent
// SetMetrics/readers race-clean; the nil default costs one atomic
// load on the instrumented paths.
var metrics atomic.Pointer[obs.Metrics]

// SetMetrics installs m (nil to disable) as the sink for index-build,
// index-maintenance and index-probe counters. Safe to call
// concurrently with readers; typically called once by a CLI or test
// before solving starts.
func SetMetrics(m *obs.Metrics) { metrics.Store(m) }

// Metrics returns the currently installed sink (nil when disabled).
func Metrics() *obs.Metrics { return metrics.Load() }

// faultPlan is the package-wide fault-injection hook, mirroring the
// metrics hook for the same reason: instances are created everywhere
// and the harness is tests-only, so one process-global armed plan
// beats threading a plan through every constructor. nil (the default,
// always in production) is inert.
var faultPlan atomic.Pointer[fault.Plan]

// SetFaultPlan arms p (nil to disarm) at the relation-layer injection
// sites. Tests that arm it must disarm it again (defer
// SetFaultPlan(nil)) — the hook is process-global.
func SetFaultPlan(p *fault.Plan) { faultPlan.Store(p) }

// FaultPlan returns the currently armed plan (nil when disarmed).
func FaultPlan() *fault.Plan { return faultPlan.Load() }
