package tracegen

import (
	"math/rand"

	"nopower/internal/trace"
)

// oneForTest exposes the single-trace generator to tests with a fixed RNG.
func oneForTest(cls Class, p Params) *trace.Trace {
	d := synth(cls, p.normalized(), rand.New(rand.NewSource(p.Seed)))
	return &trace.Trace{Name: "test", Class: cls.Name, Demand: d}
}
