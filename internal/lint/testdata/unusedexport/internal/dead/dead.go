package dead

// Used is called from the command.
func Used() int { return helper() + Kept }

func helper() int { return 1 }

// Dead is named by nothing: seeded violation.
func Dead() {}

// TestOnly is named only by dead_test.go, which keeps it alive.
func TestOnly() {}

// T's methods are matched by selector name.
type T struct{}

// Live is called from the command.
func (T) Live() {}

// Gone is never selected: seeded violation.
func (T) Gone() {}

// String is called by fmt through fmt.Stringer, never by name.
func (T) String() string { return "t" }

const (
	// Kept is read by Used in this file.
	Kept = 2
	// Unused is read nowhere: seeded violation.
	Unused = 3
)
