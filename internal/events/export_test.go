package events

// SymCount returns the number of names in the process's symbol table, the
// empty name included.
func SymCount() int { return len(*symtab.names.Load()) }
