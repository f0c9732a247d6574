package detector

// stepwiseRunUntil is the reference RunUntil is checked against: one
// platform Step at a time, with the checks at every CheckEvery-th step.
func stepwiseRunUntil(d *Detector, maxSteps int, done func() bool) *Report {
	for i := 0; i < maxSteps; i++ {
		alive := d.p.Step()
		d.steps++
		if d.steps%d.opts.CheckEvery == 0 || !alive {
			if r := d.Check(); r != nil {
				return r
			}
			if done != nil && done() {
				return d.Check()
			}
		}
		if !alive {
			return nil
		}
	}
	return d.Check()
}

// CountInline runs f and returns how many slave events its detectors'
// runs took on a task's own coroutine. Tests that use it must not run in
// parallel.
func CountInline(f func()) uint64 {
	var inline uint64
	runUntil = func(d *Detector, maxSteps int, done func() bool) *Report {
		defer func() {
			_, n := d.p.Slave.RunStats()
			inline += n
		}()
		return d.runUntil(maxSteps, done)
	}
	defer func() { runUntil = (*Detector).runUntil }()
	f()
	return inline
}

// Stepwise runs f with every detector driving its platform through the
// reference loop. Tests that use it must not run in parallel.
func Stepwise(f func()) {
	runUntil = stepwiseRunUntil
	defer func() { runUntil = (*Detector).runUntil }()
	f()
}
