module Rng = Faults.Rng

type t = Faults.plan_step list

let init_list n f =
  let rec go i acc = if i >= n then List.rev acc else go (i + 1) (f i :: acc) in
  go 0 []

(* Points a perturbation plan may stall at. Kill actions are excluded
   from history-checked targets: a killed operation may or may not have
   taken effect, so its recorded entry would poison the checker with
   false violations. Kills are exercised by the dedicated lease target
   (Exec's [fclease]), whose oracle tolerates the ambiguity. *)
let stall_points =
  [
    "fuzz.step";
    "future.fulfil";
    "future.force";
    "future.await";
    "fc.apply";
    "fc.pass";
    "fc.record";
    "elim.exchange";
    "elim.offer";
    "elim.park";
    "spinlock.acquire";
    "backoff.once";
    "arrival.wait";
    "shard.apply";
    "shard.grant";
    "shard.ship";
    "shard.ack";
    "service.admit";
    "service.shed";
    "service.epoch";
  ]

(* Kill points fire only in kill-plan targets' code paths: the fc.*
   points in [fclease], the shard.* points in [shardmap], and the
   service.* points in [service] (admit/shed kill a worker mid-request,
   degrade/epoch kill the admission controller). A kill step whose
   point the target never reaches is simply inert. *)
let kill_points =
  [
    "fc.pass";
    "fc.record";
    "shard.apply";
    "shard.grant";
    "shard.ship";
    "shard.ack";
    "service.admit";
    "service.shed";
    "service.degrade";
    "service.epoch";
  ]

let pick rng l = List.nth l (Rng.below rng (List.length l))

(* Hit indices of every step drawn without [reach]. *)
let horizon = 160

(* With [reach] (a dry run's hit count per point), a step picks only a
   point the dry run reached and a hit index below its count, so it
   lands; a target that reached no kill point gets no kill steps, and a
   step with no reached stall point to draw from is dropped. Without
   [reach] every point is drawn with [horizon], which keeps the campaigns
   of history-checked targets as they were. *)
let generate ?(intensity = 12) ?(kills = false) ?(kill_points = kill_points)
    ?reach ~seed () =
  let rng = Rng.create ~seed ~stream:0x504c in
  (* Each point with the horizon of its hit index. *)
  let sized pts =
    match reach with
    | None -> List.map (fun pt -> (pt, horizon)) pts
    | Some r ->
        List.filter_map
          (fun pt ->
            match List.assoc_opt pt r with
            | Some n when n > 0 -> Some (pt, n)
            | _ -> None)
          pts
  in
  let kill_at = sized kill_points and stall_at = sized stall_points in
  List.filter_map Fun.id
    (init_list intensity (fun _ ->
         let kill = kills && kill_at <> [] && Rng.below rng 4 = 0 in
         if (not kill) && stall_at = [] then None
         else
           let pt, h = pick rng (if kill then kill_at else stall_at) in
           let at = Rng.below rng h in
           let act =
             if kill then Faults.Kill
             else
               match Rng.below rng 4 with
               | 0 | 1 -> Faults.Delay (1 + Rng.below rng 2048)
               | 2 -> Faults.Delay (1 + Rng.below rng 16_384)
               | _ ->
                   Faults.Sleep (1e-6 *. float_of_int (1 + Rng.below rng 200))
           in
           Some { Faults.pt; at; act }))

let has_kills (p : t) = List.exists (fun s -> s.Faults.act = Faults.Kill) p

(* ------------------------- serialization -------------------------- *)

(* Floats print as %h hex literals so parsing reproduces the exact bit
   pattern (byte-for-byte replay). *)
let action_to_string = function
  | Faults.Nothing -> "nothing"
  | Faults.Delay n -> "delay " ^ string_of_int n
  | Faults.Sleep s -> Printf.sprintf "sleep %h" s
  | Faults.Kill -> "kill"

let action_of_string s =
  match String.split_on_char ' ' s with
  | [ "nothing" ] -> Faults.Nothing
  | [ "delay"; n ] -> (
      match int_of_string_opt n with
      | Some n -> Faults.Delay n
      | None -> invalid_arg ("Fuzz.Plan.action_of_string: " ^ s))
  | [ "sleep"; f ] -> (
      match float_of_string_opt f with
      | Some f -> Faults.Sleep f
      | None -> invalid_arg ("Fuzz.Plan.action_of_string: " ^ s))
  | [ "kill" ] -> Faults.Kill
  | _ -> invalid_arg ("Fuzz.Plan.action_of_string: " ^ s)

let step_to_string (s : Faults.plan_step) =
  Printf.sprintf "%s %d %s" s.Faults.pt s.Faults.at
    (action_to_string s.Faults.act)

let step_of_string line =
  match String.index_opt line ' ' with
  | None -> invalid_arg ("Fuzz.Plan.step_of_string: " ^ line)
  | Some i -> (
      let pt = String.sub line 0 i in
      let rest = String.sub line (i + 1) (String.length line - i - 1) in
      match String.index_opt rest ' ' with
      | None -> invalid_arg ("Fuzz.Plan.step_of_string: " ^ line)
      | Some j ->
          let at =
            match int_of_string_opt (String.sub rest 0 j) with
            | Some n -> n
            | None -> invalid_arg ("Fuzz.Plan.step_of_string: " ^ line)
          in
          let act =
            action_of_string
              (String.sub rest (j + 1) (String.length rest - j - 1))
          in
          { Faults.pt; at; act })

(* --------------------------- shrinking ---------------------------- *)

let shrink_candidates (p : t) =
  let n = List.length p in
  if n = 0 then []
  else
    (* The empty plan first: many counterexamples are pure program bugs
       that need no schedule perturbation at all. *)
    [ [] ]
    @ (if n <= 1 then []
       else
         [
           List.filteri (fun i _ -> i >= n / 2) p;
           List.filteri (fun i _ -> i < n / 2) p;
         ])
    @ init_list n (fun i -> List.filteri (fun j _ -> j <> i) p)
