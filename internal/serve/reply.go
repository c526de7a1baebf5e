package serve

import (
	"encoding/hex"
	"net/http"
	"strconv"

	"dsarp/internal/exp"
	"dsarp/internal/store"
)

// writeSimReply writes a 200 POST /v1/sim reply: byte for byte what
// writeJSON(w, http.StatusOK, simResponse{...}) writes for the same
// fields, framed by hand so that the result payload is copied once
// instead of being validated, compacted and re-indented by
// encoding/json. payload must be one valid JSON value, as everything
// EncodeResult writes and DecodeResult accepts is. The key prints as hex
// and src as a plain word, so neither needs escaping.
func writeSimReply(w http.ResponseWriter, key store.Key, src exp.RunSource, resumedFrom int64, payload []byte) {
	// Indented, an 8-core result payload grows by about three quarters.
	b := make([]byte, 0, 256+2*len(payload))
	b = append(b, "{\n  \"key\": \""...)
	b = hex.AppendEncode(b, key[:])
	b = append(b, "\",\n  \"source\": \""...)
	b = append(b, src.String()...)
	b = append(b, "\",\n  \"cached\": "...)
	b = strconv.AppendBool(b, src.Cached())
	if resumedFrom != 0 {
		b = append(b, ",\n  \"resumed_from\": "...)
		b = strconv.AppendInt(b, resumedFrom, 10)
	}
	b = append(b, ",\n  \"result\": "...)
	b = appendIndented(b, payload)
	b = append(b, "\n}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

// appendIndented appends src, a valid JSON value, as the value of a field
// of a top-level object that json.Encoder prints with SetIndent("", "  "),
// the way it prints a json.RawMessage: whitespace between tokens dropped;
// <, >, &, U+2028 and U+2029 in strings escaped; every element and member
// on a line of its own, indented two spaces per level; and empty objects
// and arrays kept as {} and [].
func appendIndented(dst, src []byte) []byte {
	const hexDigits = "0123456789abcdef"
	depth := 1
	opened := false // a { or [ was just written and its first line is not begun
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch c {
		case ' ', '\t', '\r', '\n':
			continue
		}
		if opened && c != '}' && c != ']' {
			opened = false
			depth++
			dst = appendNewline(dst, depth)
		}
		switch c {
		case '{', '[':
			opened = true
			dst = append(dst, c)
		case ',':
			dst = append(dst, c)
			dst = appendNewline(dst, depth)
		case ':':
			dst = append(dst, ':', ' ')
		case '}', ']':
			if opened {
				opened = false
			} else {
				depth--
				dst = appendNewline(dst, depth)
			}
			dst = append(dst, c)
		case '"':
			// A string, copied through its closing quote with the
			// characters the encoder escapes escaped.
			dst = append(dst, c)
			for i++; i < len(src); i++ {
				c = src[i]
				if c == '"' {
					dst = append(dst, c)
					break
				}
				switch {
				case c == '\\' && i+1 < len(src):
					dst = append(dst, c, src[i+1])
					i++
				case c == '<' || c == '>' || c == '&':
					dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
				case c == 0xE2 && i+2 < len(src) && src[i+1] == 0x80 && src[i+2]&^1 == 0xA8:
					dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[src[i+2]&0xF])
					i += 2
				default:
					dst = append(dst, c)
				}
			}
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// appendNewline starts a line indented to depth.
func appendNewline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for ; depth > 0; depth-- {
		dst = append(dst, ' ', ' ')
	}
	return dst
}
