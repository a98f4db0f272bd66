(** Slack policy: how many operations may be left pending before a thread
    evaluates their futures (Kogan & Herlihy §5).

    The paper's benchmark issues operations returning futures and, after
    every [X] (= slack) of them, forces all outstanding futures before
    continuing. This helper encapsulates that policy for benchmarks and
    applications: register each returned future (as a force thunk) with
    [note]; every [slack]-th registration forces the whole batch, newest
    first by default (see {!create}). A [t] is owned by a single thread.

    {b Forcing.} The window is one ring. [note] stores a thunk only
    while the window stays below the bound; the thunk that fills it is
    never stored but forced straight from [note] — first when forcing
    newest first, last when forcing oldest first — together with the
    stored ones, each popped off the ring just before it runs. With
    slack 1 a [note] therefore stores nothing and allocates nothing.

    {b Reentrancy.} A thunk may call [note] on the same [t] (an
    evaluator issuing a follow-up operation): while a window is being
    forced such a thunk is stored whatever the bound, and runs in the
    same drain before the outer [note] or [drain] returns. A reentrant
    [drain] does nothing.

    {b Exceptions.} A thunk that raises has run once and is gone; the
    exception propagates out of the [note] or [drain] that was forcing
    it, the thunks not yet run stay in the window ({!pending} counts
    them, the filling thunk included if it had not run), and the next
    [drain] — or the [note] that fills the window again — runs each of
    them exactly once. *)

type t

type order = Newest_first | Oldest_first

val create : ?order:order -> int -> t
(** [create slack]. Raises [Invalid_argument] if [slack < 1].

    [order] (default [Newest_first]) is the order in which a full window
    is forced. Newest-first means the very first force reaches the most
    recent future, so implementations that evaluate "until F is ready"
    (the medium-FL queue and list) resolve the whole window in one
    combined flush. Oldest-first degrades every evaluation to a single
    operation — it exists as ablation D in DESIGN.md, quantifying how
    much the evaluation schedule the paper leaves implicit matters. *)

val slack : t -> int

val set_slack : t -> int -> unit
(** Retune the window bound (clamped to [>= 1]); safe to call from any
    domain — the owner picks the new bound up at its next {!note}. A
    bound below the current fill simply drains at that next [note]. *)

val note : t -> (unit -> unit) -> unit
(** [note t force] registers an outstanding future's force thunk. When the
    number of outstanding futures reaches the slack bound, all of them are
    forced — newest first by default, so that the very first force
    flushes the whole window and the medium-FL structures'
    evaluate-until-ready combining engages — and the window restarts. With slack 1 this degenerates to
    forcing every future immediately, the paper's direct overhead
    comparison against lock-free structures. *)

val pending : t -> int
(** Number of currently outstanding futures. *)

val drain : t -> unit
(** Force all outstanding futures now, in the window's order (see
    {!note}); a no-op when called from a thunk being forced. *)

val abandon : t -> int
(** Recovery hook: drop every registered force thunk without running it
    and return how many were dropped. For use (by any thread) only once
    the owner is known dead — the thunks would re-enter the dead owner's
    handle, whose futures are poisoned by the handle's own [abandon]. *)
