package sim

// TeeTracer fans execution events out to multiple tracers in order. The
// engine uses it internally to compose a user-installed tracer with the
// attached determinism digests, and callers use it to stack their own
// observers (e.g. a trace collector on top of a counting tracer) without
// either displacing the other.
type TeeTracer struct {
	tracers []Tracer
}

// NewTeeTracer composes the given tracers, skipping nils. It returns nil
// for an empty set and the tracer itself for a singleton, so composing is
// always safe and never adds indirection it doesn't need.
func NewTeeTracer(tracers ...Tracer) Tracer {
	flat := make([]Tracer, 0, len(tracers))
	for _, t := range tracers {
		if t == nil {
			continue
		}
		// Flatten nested tees so repeated composition stays one level deep.
		if tee, ok := t.(*TeeTracer); ok {
			flat = append(flat, tee.tracers...)
			continue
		}
		flat = append(flat, t)
	}
	switch len(flat) {
	case 0:
		return nil
	case 1:
		return flat[0]
	}
	return &TeeTracer{tracers: flat}
}

// Event implements Tracer.
func (t *TeeTracer) Event(at Time, seq uint64) {
	for _, tr := range t.tracers {
		tr.Event(at, seq)
	}
}

// ProcSwitch implements Tracer.
func (t *TeeTracer) ProcSwitch(at Time, name string) {
	for _, tr := range t.tracers {
		tr.ProcSwitch(at, name)
	}
}

// Tracers returns the composed tracers in call order.
func (t *TeeTracer) Tracers() []Tracer { return t.tracers }
