package harness

import (
	"context"
	"testing"

	"repro/internal/backend"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/workload"
)

// allocsForSpec measures total heap allocations for building and
// running a small system with the given spec and per-core stream length.
func allocsForSpec(t *testing.T, spec core.SystemSpec, accesses int) float64 {
	t.Helper()
	const scale = 32
	prof := workload.MustGet("canneal")
	return testing.AllocsPerRun(3, func() {
		sys := core.NewSystem(spec, workload.Threads(prof, spec.Cores, accesses, scale, 1))
		if _, err := sys.RunCtx(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
	})
}

// TestStepPathAllocationFloorBackends is the allocation-regression
// guard for the per-step path: the marginal allocation cost of extra
// accesses — the difference between a 2N-access run and an N-access
// run, which cancels out all construction-time allocation — must stay
// near zero per access on every protocol backend, including the
// sparse-MESI DEV invalidations, the DLS inclusion flows, and the
// phase-priority NACK/retry ladder. The steady-state step path is
// effectively allocation-free (the ~53k allocs/op fig18 floor is
// construction); a change that allocates per step shows up here as
// roughly cores × extra-accesses allocations and fails loudly.
func TestStepPathAllocationFloorBackends(t *testing.T) {
	const n = 4000
	pre := config.TableI(32)
	for _, tc := range []struct {
		id    backend.ID
		ratio float64
	}{
		{backend.ZeroDEV, 0}, // ZeroDEV(0, FPSS, DataLRU, NonInclusive)
		{backend.SparseMESI, 1.0 / 8},
		{backend.DLS, 1.0 / 8},
		{backend.PhasePriority, 1.0 / 8},
	} {
		t.Run(string(tc.id), func(t *testing.T) {
			spec, err := pre.ForBackend(tc.id, tc.ratio)
			if err != nil {
				t.Fatal(err)
			}
			base := allocsForSpec(t, spec, n)
			double := allocsForSpec(t, spec, 2*n)
			marginal := (double - base) / float64(n*8) // 8 cores
			t.Logf("allocs: %d accesses %.0f, %d accesses %.0f, marginal/access %.4f",
				n, base, 2*n, double, marginal)
			// Threshold: well below one allocation per access, with
			// headroom for amortized buffer growth (DRAM/LLC
			// bookkeeping) and measurement noise.
			if marginal > 0.25 {
				t.Fatalf("%s per-step path allocates %.4f allocations/access (marginal over %d extra accesses x 8 cores); the step path must stay effectively allocation-free",
					tc.id, marginal, n)
			}
		})
	}
}
