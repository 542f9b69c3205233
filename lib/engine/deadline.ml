type t = {
  deadline : float option;  (* absolute *)
  default_per_call : float;
  mutable pending : int;
  mutex : Mutex.t;
}

(* Below this many seconds a SAT call cannot do useful work; treat the
   budget as exhausted rather than launching a doomed solve. *)
let min_useful_budget = 0.01

let create ?wall ~pending ~default_per_call () =
  {
    deadline = Option.map (fun s -> Unix.gettimeofday () +. s) wall;
    default_per_call;
    pending = max 1 pending;
    mutex = Mutex.create ();
  }

let remaining t = Option.map (fun d -> d -. Unix.gettimeofday ()) t.deadline

let expired t = match remaining t with Some r -> r <= 0. | None -> false

let claim t =
  Mutex.protect t.mutex (fun () ->
      match t.deadline with
      | None -> Some t.default_per_call
      | Some d ->
        let left = d -. Unix.gettimeofday () in
        let share = left /. float_of_int (max 1 t.pending) in
        if share < min_useful_budget then None
        else Some (Float.min t.default_per_call share))

let finish t = Mutex.protect t.mutex (fun () -> t.pending <- max 0 (t.pending - 1))
