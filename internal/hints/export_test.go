package hints

// DecodeDirect exposes the direct table decoder to the external tests,
// which report whether an encoder's output takes it.
func (t *Table) DecodeDirect(data []byte) bool { return t.decodeDirect(data) }
