(** Minimal JSON: one value type, a parser and a writer.

    The repo deliberately has no JSON dependency. This is everything the
    benchmark record writer ([bench/main.exe --json]) and the two
    validators ([validate_bench], [validate_trace]) need. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string
(** A parse error, formatted ["offset N: reason"] where [N] is the byte
    offset at which parsing stopped. *)

val parse : string -> t
(** Parse one complete document; whitespace around it is allowed,
    anything else after it is not. A [\u] escape above ASCII decodes to
    ['?']: the validators check validity, not the exact text. Raises
    {!Bad}. *)

val to_string : t -> string
(** Serialize. Numbers: integral values below 1e15 exactly, others as
    [%.6g]; non-finite values, which JSON cannot carry, become [null].
    Strings escape double quotes, backslashes and control characters.
    An array or object whose members are all scalars goes on one line
    with no spaces; one holding a nested array or object puts each
    member on its own line, indented two spaces per level. *)
