package dram

import "fmt"

// CmdKind enumerates DRAM commands the controller can issue.
type CmdKind int

const (
	// CmdACT activates (opens) a row in a bank.
	CmdACT CmdKind = iota
	// CmdRD reads a column from the open row.
	CmdRD
	// CmdRDA reads a column and auto-precharges the bank afterwards.
	CmdRDA
	// CmdWR writes a column to the open row.
	CmdWR
	// CmdWRA writes a column and auto-precharges the bank afterwards.
	CmdWRA
	// CmdPRE precharges (closes) a bank.
	CmdPRE
	// CmdREFab refreshes a number of rows in every bank of a rank.
	CmdREFab
	// CmdREFpb refreshes a number of rows in a single bank of a rank.
	CmdREFpb
)

var cmdNames = [...]string{"ACT", "RD", "RDA", "WR", "WRA", "PRE", "REFab", "REFpb"}

func (k CmdKind) String() string {
	if int(k) < len(cmdNames) {
		return cmdNames[k]
	}
	return fmt.Sprintf("CmdKind(%d)", int(k))
}

// IsColumn reports whether the command transfers data on the bus.
func (k CmdKind) IsColumn() bool {
	return k == CmdRD || k == CmdRDA || k == CmdWR || k == CmdWRA
}

// IsWrite reports whether the command is a write column command.
func (k CmdKind) IsWrite() bool { return k == CmdWR || k == CmdWRA }

// IsRefresh reports whether the command is a refresh.
func (k CmdKind) IsRefresh() bool { return k == CmdREFab || k == CmdREFpb }

// Cmd is one DRAM command. Row/Col are ignored where not applicable; Bank is
// ignored for REFab.
type Cmd struct {
	Kind CmdKind
	Rank int
	Bank int
	Row  int
	Col  int

	// RefDur overrides the refresh duration in cycles (0 = the parameter
	// set's tRFC). RefRows overrides the rows restored per bank (0 = the
	// geometry's RowsPerRef). Both exist for DDR4 fine granularity refresh
	// and adaptive refresh (paper §6.5), where the per-command refresh
	// quantum changes at run time.
	RefDur  int
	RefRows int
}

func (c Cmd) String() string {
	switch c.Kind {
	case CmdREFab:
		return fmt.Sprintf("REFab(r%d)", c.Rank)
	case CmdREFpb:
		return fmt.Sprintf("REFpb(r%d/b%d)", c.Rank, c.Bank)
	case CmdPRE:
		return fmt.Sprintf("PRE(r%d/b%d)", c.Rank, c.Bank)
	case CmdACT:
		return fmt.Sprintf("ACT(r%d/b%d/row%d)", c.Rank, c.Bank, c.Row)
	default:
		return fmt.Sprintf("%s(r%d/b%d/row%d/col%d)", c.Kind, c.Rank, c.Bank, c.Row, c.Col)
	}
}
