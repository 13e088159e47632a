package sim

// F64 is a simulated array of float64: data lives in an ordinary Go slice
// for functional correctness while every element access is charged to the
// accessing core's clock at the array's simulated address.
type F64 struct {
	Data []float64
	base uint64
	m    *Machine
}

// NewF64 allocates an n-element float64 array, returning an error when the
// device's RAM cannot hold it.
func (m *Machine) NewF64(n int) (*F64, error) {
	base, err := m.alloc(int64(n) * 8)
	if err != nil {
		return nil, err
	}
	return &F64{Data: make([]float64, n), base: base, m: m}, nil
}

// MustNewF64 is NewF64 but panics on allocation failure.
func (m *Machine) MustNewF64(n int) *F64 {
	a, err := m.NewF64(n)
	if err != nil {
		panic(err)
	}
	return a
}

// Addr returns the simulated byte address of element i.
func (a *F64) Addr(i int) uint64 { return a.base + uint64(i)*8 }

// Load reads element i on core c.
func (a *F64) Load(c *Core, i int) float64 {
	c.touch(a.Addr(i), 8, false)
	return a.Data[i]
}

// Store writes element i on core c.
func (a *F64) Store(c *Core, i int, v float64) {
	c.touch(a.Addr(i), 8, true)
	a.Data[i] = v
}

// LoadRange charges reads of elements [lo,hi) as one unit-stride burst
// (line-granular, see Core.TouchRange) and returns the backing slice. The
// slice aliases the array — callers must not hold it across a Store.
func (a *F64) LoadRange(c *Core, lo, hi int) []float64 {
	c.TouchRange(a.Addr(lo), 8, hi-lo, false)
	return a.Data[lo:hi:hi]
}

// F32 is the float32 analogue of F64 (the blur kernels convert pixel
// intensities to float, matching §4.3).
type F32 struct {
	Data []float32
	base uint64
	m    *Machine
}

// NewF32 allocates an n-element float32 array.
func (m *Machine) NewF32(n int) (*F32, error) {
	base, err := m.alloc(int64(n) * 4)
	if err != nil {
		return nil, err
	}
	return &F32{Data: make([]float32, n), base: base, m: m}, nil
}

// Addr returns the simulated byte address of element i.
func (a *F32) Addr(i int) uint64 { return a.base + uint64(i)*4 }

// Load reads element i on core c.
func (a *F32) Load(c *Core, i int) float32 {
	c.touch(a.Addr(i), 4, false)
	return a.Data[i]
}

// Store writes element i on core c.
func (a *F32) Store(c *Core, i int, v float32) {
	c.touch(a.Addr(i), 4, true)
	a.Data[i] = v
}
